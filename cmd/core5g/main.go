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
// printing the registration's hops (the paper's Fig. 5 on the virtual
// clock), opens a PDU session and echoes data over it, then deregisters the
// UE and checks that the AMF, SMF and UPF released everything it held,
// printing one line for each half. It prints the virtual time each
// procedure booked — session setup beside the paper's 62.38 ms, the
// deregistration, the provisioning and the slice's maintenance — and exits
// 1 if the hop record overflowed or does not add up, if the boundary events
// counted on the registration's account are not what its modules counted
// across it, or if any cycle, the slice's teardown included, was charged to
// no account, as on any other failure. -serve then keeps the SBI up over
// HTTP.
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
	"shield5g/internal/simclock"
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
		recording := simclock.NewCall(ctx)
		recording.Hops, recording.Account = new(simclock.Hops), new(simclock.Account)
		before := moduleEvents(tb)
		sess, err := tb.Register(recording, sub)
		if err != nil {
			fmt.Fprintf(stderr, "core5g: registration: %v\n", err)
			return 1
		}
		if code := printHops(stdout, stderr, tb.Slice.Env.Model.Duration, recording.Hops, sess.Virtual()); code != 0 {
			return code
		}
		if counted, moved := recording.Account.Counts(), moduleEvents(tb).Sub(before); counted != moved {
			fmt.Fprintf(stderr, "core5g: the registration's account counted %v boundary events; its modules counted %v\n", counted, moved)
			return 1
		}
		if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
			fmt.Fprintf(stderr, "core5g: PDU session: %v\n", err)
			return 1
		}
		setup := sess.Virtual()
		echo, err := sess.SendData(ctx, []byte("hello-5g"))
		if err != nil {
			fmt.Fprintf(stderr, "core5g: data path: %v\n", err)
			return 1
		}
		guti, _ := sub.UE.GUTI()
		fmt.Fprintf(stdout, "demo UE %s registered: GUTI=%s addr=%s setup=%v echo=%q\n",
			sub.SUPI.String(), guti, sub.UE.UEAddress(), sess.SetupTime.Round(time.Microsecond), echo)
		fmt.Fprintf(stdout, "demo session setup (registration + PDU session): %v virtual (paper: 62.38ms)\n", setup.Round(10*time.Microsecond))
		beforeDeregistration := sess.Virtual()
		if err := sess.Deregister(ctx); err != nil {
			fmt.Fprintf(stderr, "core5g: deregistration: %v\n", err)
			return 1
		}
		s := tb.Slice
		ues, smfSessions, upfSessions := s.AMF.RegisteredUEs(), s.SMF.SessionCount(), s.UPF.SessionCount()
		left := fmt.Sprintf("%d AMF UE contexts, %d SMF and %d UPF sessions left", ues, smfSessions, upfSessions)
		if ues+smfSessions+upfSessions != 0 {
			fmt.Fprintf(stderr, "core5g: deregistration released too little: %s\n", left)
			return 1
		}
		fmt.Fprintf(stdout, "demo UE deregistered: %s\n", left)
		provisioning, maintenance := s.Booked()
		fmt.Fprintf(stdout, "demo virtual time: deregistration %v, provisioning %v, slice maintenance %v\n",
			(sess.Virtual() - beforeDeregistration).Round(10*time.Microsecond), provisioning.Round(10*time.Microsecond), maintenance.Round(10*time.Millisecond))
	}
	if !*serve {
		tb.Close() // the teardown books too, so the check reads it; a second Close does nothing
	}
	if n := tb.Slice.Unbooked(); n != 0 {
		fmt.Fprintf(stderr, "core5g: %d cycles charged to no account\n", n)
		return 1
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

// moduleEvents sums the boundary events every module of the slice counted.
func moduleEvents(tb *shield5g.Testbed) (c simclock.Counts) {
	for _, shard := range tb.Slice.Shards {
		for _, m := range shard.Modules {
			c = c.Add(m.Events())
		}
	}
	return c
}

// printHops prints the demo registration's hops, the paper's Fig. 5 on the
// virtual clock: one line per hop, indented by depth, with what the
// registration's account was charged across it and, on a crossing, the
// boundary events counted on it. It returns 1 when the
// record overflowed or the top-level hops charged more than the
// registration booked; what they leave is the UE's own USIM work.
func printHops(stdout, stderr io.Writer, duration func(simclock.Cycles) time.Duration, hops *simclock.Hops, booked time.Duration) int {
	fmt.Fprintln(stdout, "demo registration hops (Fig. 5; virtual µs charged across each):")
	var top simclock.Cycles
	for _, h := range hops.Hops() {
		if h.Depth == 0 {
			top += h.Cycles
		}
		fmt.Fprintf(stdout, "  %*s%-5v %-*s %9.1f", 2*int(h.Depth), "", h.Kind, 50-2*int(h.Depth), h.Site, float64(duration(h.Cycles))/1e3)
		if c := h.Counts; h.Kind == simclock.Cross {
			fmt.Fprintf(stdout, "  EENTER %d  EEXIT %d  OCALL %d  AEX %d  VM exit %d",
				c[simclock.EENTER], c[simclock.EEXIT], c[simclock.OCALL], c[simclock.AEX], c[simclock.VMExit])
		}
		fmt.Fprintln(stdout)
	}
	if n := hops.Overflow(); n != 0 || duration(top) > booked {
		fmt.Fprintf(stderr, "core5g: hop record: %d hops past capacity; top-level hops charged %v of %v booked\n", n, duration(top), booked)
		return 1
	}
	fmt.Fprintf(stdout, "demo registration: %d hops, %v at top level + %v outside any hop = %v booked\n",
		len(hops.Hops()), duration(top).Round(time.Microsecond), (booked - duration(top)).Round(time.Microsecond), booked.Round(time.Microsecond))
	return 0
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
