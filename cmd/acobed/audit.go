package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/pkg/acobe/daemon"
)

// runAuditSmoke drives a tiny audited daemon end to end over real HTTP:
// provable ingest into dir (batch IDs acked per request), an inclusion
// proof fetched from GET /v1/proof and re-verified in process, a clean
// shutdown, and an offline chain walk of what is left on disk. It is both
// the selftest's audit leg (against a throwaway directory) and the
// positive half of the Makefile audit-smoke target, which afterwards
// tampers dir and expects `acobed -verify` to refuse it.
func runAuditSmoke(stdout io.Writer, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	users := []string{"u0", "u1", "u2", "u3"}
	srv, _, err := daemon.Start(daemon.Config{
		Users: users,
		Start: 0,
		Deviation: deviation.Config{
			Window: 4, MatrixDays: 2, Delta: 3, Epsilon: 1, Weighted: true,
		},
	},
		daemon.WithDataDir(dir),
		daemon.WithAudit(),
		daemon.WithSnapshotEvery(4),
		daemon.WithSegmentBytes(4096),
	)
	if err != nil {
		return err
	}
	shut := func() error {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		return srv.Shutdown(sctx)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = shut()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	// A week of tiny days; every ingest must come back with a batch ID.
	var batches []uint64
	for d := cert.Day(0); d <= 6; d++ {
		id, err := postProvable(ctx, client, base, smokeDayEvents(d, users))
		if err != nil {
			_ = shut()
			return fmt.Errorf("audited ingest day %d: %w", d, err)
		}
		if id == 0 {
			_ = shut()
			return fmt.Errorf("audited ingest day %d acked without a batch ID", d)
		}
		batches = append(batches, id)
		if err := post(ctx, client, fmt.Sprintf("%s/v1/close?day=%d", base, d)); err != nil {
			_ = shut()
			return err
		}
	}

	// The HTTP proof endpoint serves the newest batch; the same proof must
	// verify in process against its committed root.
	last := batches[len(batches)-1]
	if err := getProof(ctx, client, base, last); err != nil {
		_ = shut()
		return err
	}
	res, err := srv.Proof(last, 0)
	if err != nil {
		_ = shut()
		return fmt.Errorf("in-process proof of batch %d: %w", last, err)
	}
	if !res.Proof.Verify(res.Root) {
		_ = shut()
		return fmt.Errorf("batch %d: inclusion proof does not verify against its root", last)
	}
	fp := srv.AuditFingerprint()
	if err := shut(); err != nil {
		return err
	}

	// Offline: the whole chain must walk cleanly with just the public key.
	pub, err := daemon.LoadAuditPublicKey(filepath.Join(dir, daemon.AuditPubFileName))
	if err != nil {
		return err
	}
	if got := daemon.AuditKeyFingerprint(pub); got != fp {
		return fmt.Errorf("audit.pub fingerprint %s does not match the daemon's %s", got, fp)
	}
	rep, err := daemon.VerifyAudit(dir, pub)
	if err != nil {
		return fmt.Errorf("offline verify: %w", err)
	}
	if rep.Batches == 0 || rep.Seals == 0 || rep.Snapshots == 0 {
		return fmt.Errorf("offline verify covered too little: %+v", rep)
	}
	// Deterministic summary (no counts, no fingerprints): the selftest
	// golden pins this line.
	fmt.Fprintln(stdout, "# audit leg: provable ingest acked, inclusion proof verified over HTTP and in process, offline chain walk clean")
	return nil
}

// smokeDayEvents is a deterministic micro-day for the audit smoke.
func smokeDayEvents(d cert.Day, users []string) []cert.Event {
	at := func(h int) time.Time { return d.Date().Add(time.Duration(h) * time.Hour) }
	var evs []cert.Event
	for i, u := range users {
		evs = append(evs,
			cert.Event{Type: cert.EventLogon, Time: at(8 + i%2), User: u, Activity: cert.ActLogon},
			cert.Event{Type: cert.EventDevice, Time: at(10), User: u, PC: fmt.Sprintf("PC-%d", (int(d)+i)%3), Activity: cert.ActConnect},
		)
	}
	return evs
}

// postProvable ships one batch as JSONL and returns the acked batch ID.
func postProvable(ctx context.Context, client *http.Client, base string, events []cert.Event) (uint64, error) {
	reqBody, err := ingestBody(events)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", reqBody)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s: %s", req.URL, resp.Status, bytes.TrimSpace(body))
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		BatchID  uint64 `json:"batch_id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, err
	}
	if ack.Accepted != len(events) {
		return 0, fmt.Errorf("accepted %d of %d events", ack.Accepted, len(events))
	}
	return ack.BatchID, nil
}

// getProof fetches one inclusion proof over HTTP and sanity-checks the
// response carries the proof material (root, leaf, encoded form).
func getProof(ctx context.Context, client *http.Client, base string, batch uint64) error {
	url := fmt.Sprintf("%s/v1/proof?batch=%d&event=0", base, batch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	var pr struct {
		BatchID uint64 `json:"batch_id"`
		Root    string `json:"root"`
		Leaf    string `json:"leaf"`
		Encoded string `json:"encoded"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return err
	}
	if pr.BatchID != batch || pr.Root == "" || pr.Leaf == "" || pr.Encoded == "" {
		return fmt.Errorf("proof response incomplete: %s", bytes.TrimSpace(body))
	}
	return nil
}
