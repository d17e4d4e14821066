// Command core5g deploys the full 5G core slice and exposes every SBI
// service over real HTTP — the runnable-network counterpart of the
// simulation, useful for poking the NF endpoints with curl.
//
// Usage:
//
//	core5g [-isolation container|sgx|sev] [-demo=false]
//	       [-serve [-addr :8080] [-tlsdir DIR]]
//
// By default (-demo) the command registers one UE through the full stack,
// opens a PDU session and echoes data over it, printing a one-line
// summary; any failure exits 1. -serve then keeps the SBI up over HTTP.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"shield5g"
	"shield5g/internal/sbi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("core5g", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "HTTP listen address for the SBI services")
	isolation := fs.String("isolation", "sgx", "AKA isolation: container, sgx or sev")
	demo := fs.Bool("demo", true, "register one UE end to end before serving")
	serve := fs.Bool("serve", false, "keep serving the SBI over HTTP until interrupted")
	tlsDir := fs.String("tlsdir", "", "serve with mutual TLS (TS 33.210), writing ca.pem/client.pem/client.key for curl into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	iso, err := shield5g.ParseIsolation(*isolation)
	if err != nil {
		fmt.Fprintf(stderr, "core5g: %v\n", err)
		return 2
	}

	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: iso, Seed: 1})
	if err != nil {
		fmt.Fprintf(stderr, "core5g: deploy: %v\n", err)
		return 1
	}
	defer tb.Close()

	names := tb.Slice.Registry.Names()
	fmt.Fprintf(stdout, "5G core slice up (%s isolation): %d SBI services\n", iso, len(names))

	if *demo {
		k := make([]byte, 16)
		if _, err := rand.Read(k); err != nil {
			fmt.Fprintf(stderr, "core5g: entropy: %v\n", err)
			return 1
		}
		sub, err := tb.AddSubscriber(ctx, k, nil)
		if err != nil {
			fmt.Fprintf(stderr, "core5g: provision: %v\n", err)
			return 1
		}
		sess, err := tb.Register(ctx, sub)
		if err != nil {
			fmt.Fprintf(stderr, "core5g: registration: %v\n", err)
			return 1
		}
		if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
			fmt.Fprintf(stderr, "core5g: PDU session: %v\n", err)
			return 1
		}
		echo, err := sess.SendData(ctx, []byte("hello-5g"))
		if err != nil {
			fmt.Fprintf(stderr, "core5g: data path: %v\n", err)
			return 1
		}
		guti, _ := sub.UE.GUTI()
		fmt.Fprintf(stdout, "demo UE %s registered: GUTI=%s addr=%s setup=%v echo=%q\n",
			sub.SUPI.String(), guti, sub.UE.UEAddress(), sess.SetupTime.Round(time.Microsecond), echo)
	}

	if !*serve {
		return 0
	}

	mux := http.NewServeMux()
	for _, name := range names {
		srv, ok := tb.Slice.Registry.Lookup(name)
		if !ok {
			continue
		}
		for _, path := range srv.Paths() {
			mux.Handle(path, srv)
			fmt.Fprintf(stdout, "  %-12s POST %s\n", name, path)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	errCh := make(chan error, 1)
	if *tlsDir != "" {
		pki, err := sbi.NewPKI("shield5g", 24*time.Hour)
		if err != nil {
			fmt.Fprintf(stderr, "core5g: PKI: %v\n", err)
			return 1
		}
		cfg, err := pki.ServerTLS("sbi-gateway", []string{"127.0.0.1", "localhost"})
		if err != nil {
			fmt.Fprintf(stderr, "core5g: server TLS: %v\n", err)
			return 1
		}
		httpSrv.TLSConfig = cfg
		if err := writeClientCreds(pki, *tlsDir); err != nil {
			fmt.Fprintf(stderr, "core5g: write TLS credentials: %v\n", err)
			return 1
		}
		go func() { errCh <- httpSrv.ListenAndServeTLS("", "") }()
		fmt.Fprintf(stdout, "serving SBI with mutual TLS on %s (Ctrl-C to stop)\n", *addr)
		fmt.Fprintf(stdout, "curl --cacert %[1]s/ca.pem --cert %[1]s/client.pem --key %[1]s/client.key https://127.0.0.1:<port><path>\n", *tlsDir)
	} else {
		go func() { errCh <- httpSrv.ListenAndServe() }()
		fmt.Fprintf(stdout, "serving SBI on %s (Ctrl-C to stop)\n", *addr)
	}

	select {
	case <-stop:
		shutdownCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "core5g: serve: %v\n", err)
			return 1
		}
		return 0
	}
}

// writeClientCreds exports the operator CA and a client identity so curl
// (or another NF) can join the mutual-TLS mesh.
func writeClientCreds(pki *sbi.PKI, dir string) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	certPEM, keyPEM, err := pki.IssuePEM("operator-client", nil)
	if err != nil {
		return err
	}
	files := map[string][]byte{
		"ca.pem":     pki.CAPEM(),
		"client.pem": certPEM,
		"client.key": keyPEM,
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// Interface check: every SBI server must be HTTP-mountable.
var _ http.Handler = (*sbi.Server)(nil)
