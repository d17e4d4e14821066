package analysis

// Analyzers returns the full shieldlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		SecretFlow,
		StripeMap,
		HotAlloc,
		LockOrder,
	}
}

// ByName resolves an analyzer by its directive name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
