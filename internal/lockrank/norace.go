//go:build !race

package lockrank

func (m *Mutex) Lock()      { m.Mutex.Lock() }
func (m *Mutex) Unlock()    { m.Mutex.Unlock() }
func (m *RWMutex) Lock()    { m.RWMutex.Lock() }
func (m *RWMutex) Unlock()  { m.RWMutex.Unlock() }
func (m *RWMutex) RLock()   { m.RWMutex.RLock() }
func (m *RWMutex) RUnlock() { m.RWMutex.RUnlock() }
