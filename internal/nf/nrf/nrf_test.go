package nrf

import (
	"context"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
)

func harness(t *testing.T) (*NRF, *Client) {
	t.Helper()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	n, err := New(env, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, NewClient(sbi.NewClient("test", env, reg))
}

func TestRegisterAndDiscover(t *testing.T) {
	n, c := harness(t)
	ctx := context.Background()
	if err := c.Register(ctx, NFProfile{InstanceID: "udm-1", NFType: "UDM", Service: "udm"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(ctx, NFProfile{InstanceID: "udm-2", NFType: "UDM", Service: "udm-b", HMEE: true}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if n.InstanceCount() != 2 {
		t.Fatalf("InstanceCount = %d", n.InstanceCount())
	}

	// Discovery answers for the service asked for, not the first of the type.
	p, err := c.Discover(ctx, "UDM", "udm", false)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if p.InstanceID != "udm-1" {
		t.Fatalf("Discover = %+v", p)
	}

	// HMEE-restricted discovery returns only the higher trust domain.
	p, err = c.Discover(ctx, "UDM", "udm-b", true)
	if err != nil {
		t.Fatalf("Discover HMEE: %v", err)
	}
	if p.InstanceID != "udm-2" || !p.HMEE {
		t.Fatalf("HMEE Discover = %+v", p)
	}
	var pd *sbi.ProblemDetails
	if _, err := c.Discover(ctx, "UDM", "udm", true); !errors.As(err, &pd) || pd.Cause != "TARGET_NF_NOT_FOUND" {
		t.Fatalf("HMEE Discover of a lower-trust service err = %v, want TARGET_NF_NOT_FOUND", err)
	}
	if _, err := c.Discover(ctx, "UDM", "udm-c", false); !errors.As(err, &pd) || pd.Cause != "TARGET_NF_NOT_FOUND" {
		t.Fatalf("Discover of an unlisted service err = %v, want TARGET_NF_NOT_FOUND", err)
	}
}

func TestDiscoverNoMatch(t *testing.T) {
	_, c := harness(t)
	_, err := c.Discover(context.Background(), "AMF", "amf", false)
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("Discover err = %v, want 404", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, c := harness(t)
	err := c.Register(context.Background(), NFProfile{NFType: "UDM", Service: "udm"})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("missing instance ID err = %v, want 400", err)
	}
	if err := c.Register(context.Background(), NFProfile{InstanceID: "x", Service: "y"}); err == nil {
		t.Fatal("missing NF type accepted")
	}
	if err := c.Register(context.Background(), NFProfile{InstanceID: "x", NFType: "Y"}); err == nil {
		t.Fatal("missing service accepted")
	}
}

func TestRegisterReplacesProfile(t *testing.T) {
	n, c := harness(t)
	ctx := context.Background()
	if err := c.Register(ctx, NFProfile{InstanceID: "udm-1", NFType: "UDM", Service: "udm"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(ctx, NFProfile{InstanceID: "udm-1", NFType: "UDM", Service: "udm", HMEE: true}); err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	if n.InstanceCount() != 1 {
		t.Fatalf("InstanceCount = %d, want 1 (replace)", n.InstanceCount())
	}
	p, err := c.Discover(ctx, "UDM", "udm", true)
	if err != nil || !p.HMEE {
		t.Fatalf("profile not replaced: %+v %v", p, err)
	}
}
