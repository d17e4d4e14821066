// Package upf implements a minimal User Plane Function: N4 (PFCP-style)
// session establishment from the SMF and an N3 data path that tunnels UE
// traffic, enough to measure end-to-end session setup and verify that a
// registered UE can actually move data (the paper's OTA feasibility
// criterion).
package upf

import (
	"context"
	"fmt"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// Service identity.
const (
	ServiceName = "upf"
	NFType      = "UPF"
)

// SBI endpoint paths (PFCP runs over its own protocol in a real core; the
// simulation carries it over the modelled SBI transport).
const (
	PathEstablish = "/n4/v1/sessions/establish"
	PathRelease   = "/n4/v1/sessions/release"
)

// EstablishRequest installs a forwarding session.
type EstablishRequest struct {
	SEID      uint64 `json:"seid"` // session endpoint ID
	UEAddress string `json:"ue_address"`
}

// EstablishResponse confirms with the uplink tunnel ID.
type EstablishResponse struct {
	TEID uint32 `json:"teid"`
}

// ReleaseRequest tears a session down.
type ReleaseRequest struct {
	SEID uint64 `json:"seid"`
}

// Empty is an empty response body.
type Empty struct{}

// The UPF's N4 operations, which the SMF posts to.
var (
	Establish = sbi.Endpoint[EstablishRequest, EstablishResponse]{Path: PathEstablish}
	Release   = sbi.Endpoint[ReleaseRequest, Empty]{Path: PathRelease}
)

// UPF is the user-plane anchor.
type UPF struct {
	env    *costmodel.Env
	server *sbi.Server

	mu sync.Mutex
	// sessions holds the installed forwarding rules, uplink TEID by SEID.
	sessions map[uint64]uint32
	nextTEID uint32
}

// New creates a UPF and registers its N4 server.
func New(env *costmodel.Env, registry *sbi.Registry) (*UPF, error) {
	u := &UPF{
		env:      env,
		server:   sbi.NewServer(ServiceName, env),
		sessions: make(map[uint64]uint32),
	}
	Establish.Serve(u.server, u.handleEstablish)
	Release.Serve(u.server, u.handleRelease)
	if err := registry.Register(u.server); err != nil {
		return nil, err
	}
	return u, nil
}

func (u *UPF) handleEstablish(_ context.Context, req *EstablishRequest, resp *EstablishResponse) error {
	if req.UEAddress == "" {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "UE address required")
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, dup := u.sessions[req.SEID]; dup {
		return sbi.Problem(409, "Conflict", "SESSION_EXISTS", "SEID %d", req.SEID)
	}
	u.nextTEID++
	u.sessions[req.SEID] = u.nextTEID
	resp.TEID = u.nextTEID
	return nil
}

func (u *UPF) handleRelease(_ context.Context, req *ReleaseRequest, _ *Empty) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.sessions[req.SEID]; !ok {
		return sbi.Problem(404, "Not Found", sbi.CauseSessionNotFound, "SEID %d", req.SEID)
	}
	delete(u.sessions, req.SEID)
	return nil
}

// SessionCount reports installed sessions.
func (u *UPF) SessionCount() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.sessions)
}

// ForwardUplink is the N3 data path: the gNB tunnels a UE packet by TEID;
// the UPF forwards it to the data network and returns the response (an
// echo in this simulation — the Test/-1 connection of the paper's OTA
// test). It charges GTP encapsulation and forwarding costs.
func (u *UPF) ForwardUplink(ctx context.Context, teid uint32, payload []byte) ([]byte, error) {
	u.mu.Lock()
	found := false
	for _, t := range u.sessions {
		if t == teid {
			found = true
			break
		}
	}
	u.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("upf: no session for TEID %d", teid)
	}
	m := u.env.Model
	u.env.Charge(ctx, m.LoopbackRTT/2+simclock.Cycles(len(payload))*m.CopyPerByte)
	echo := append([]byte("dn-echo:"), payload...)
	return echo, nil
}
