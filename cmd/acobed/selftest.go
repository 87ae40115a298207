package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/serve"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// Selftest timeline: a 96-day organization with a short deviation window so
// the whole cycle (history → training → anomaly → ranking) fits in seconds.
const (
	stEndDay      = cert.Day(95)
	stWindow      = 7
	stMatrixDays  = 3
	stTrainFrom   = cert.Day(8) // first compound-matrix day: window-1 + matrixDays-1
	stTrainTo     = cert.Day(74)
	stRankFrom    = cert.Day(80)
	stAnomFrom    = cert.Day(82)
	stAnomTo      = cert.Day(90)
	stEventsPerIn = 9 // injected events per channel per anomalous day
)

// runSelftest exercises the daemon end to end over a real HTTP listener:
// synthesize a small organization, replay it day by day with anomalous
// exfiltration injected into one user during the test period, retrain at
// the end of the training span, and print the ranked investigation list as
// CSV. Everything is seeded, so the output is byte-deterministic — at any
// shard count: the Makefile smoke diffs sharded and unsharded runs against
// the same golden.
func runSelftest(stdout io.Writer, shards int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	gcfg := cert.SmallConfig(3)
	gcfg.Seed = 7
	gcfg.Start = 0
	gcfg.End = stEndDay
	gcfg.EnvChanges = nil
	gcfg.Scenarios = nil
	gen, err := cert.New(gcfg)
	if err != nil {
		return err
	}
	var (
		users      []string
		membership []int
	)
	deptIndex := make(map[string]int)
	for i, d := range gen.Departments() {
		deptIndex[d] = i
	}
	for _, u := range gen.Users() {
		users = append(users, u.ID)
		membership = append(membership, deptIndex[u.Department])
	}
	insider := users[5]

	srv, err := serve.New(serve.Config{
		Users:      users,
		Groups:     gen.Departments(),
		Membership: membership,
		Start:      0,
		Shards:     shards,
		Deviation: deviation.Config{
			Window: stWindow, MatrixDays: stMatrixDays,
			Delta: 3, Epsilon: 1, Weighted: true,
		},
		DetectorOptions: []acobe.Option{
			acobe.WithAspects(acobe.ACOBEAspects()...),
			acobe.WithSeed(7),
			acobe.WithVotes(2),
			acobe.WithTrainStride(2),
			acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
				cfg := acobe.FastModelConfig(dim)
				cfg.Hidden = []int{16, 8}
				cfg.Epochs = 30
				return cfg
			}),
		},
	})
	if err != nil {
		return err
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	err = gen.Stream(func(d cert.Day, events []cert.Event) error {
		if d >= stAnomFrom && d <= stAnomTo {
			events = append(events, anomalyEvents(insider, d)...)
		}
		if err := postEvents(ctx, client, base, events); err != nil {
			return err
		}
		if err := post(ctx, client, fmt.Sprintf("%s/v1/close?day=%d", base, d)); err != nil {
			return err
		}
		if d == stTrainTo {
			return post(ctx, client, fmt.Sprintf("%s/v1/retrain?from=%d&to=%d&wait=1", base, stTrainFrom, stTrainTo))
		}
		return nil
	})
	if err != nil {
		return err
	}

	resp, err := getJSON(ctx, client, fmt.Sprintf("%s/v1/rank?from=%d&to=%d", base, stRankFrom, stEndDay))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# acobed selftest: %d users, insider %s, ranked %s..%s\n",
		len(users), insider, stRankFrom, stEndDay)
	fmt.Fprintln(stdout, "rank,user,priority,aspect_ranks")
	for i, r := range resp.List {
		fmt.Fprintf(stdout, "%d,%s,%d,%s\n", i+1, r.User, r.Priority, joinInts(r.Ranks))
	}
	if len(resp.List) == 0 || resp.List[0].User != insider {
		return fmt.Errorf("selftest: insider %s not ranked first", insider)
	}

	// Audit leg: the same serving stack with the tamper-evident trail on,
	// against a throwaway directory — provable ingest, an HTTP inclusion
	// proof, and an offline chain walk of the shut-down directory.
	auditDir, err := os.MkdirTemp("", "acobed-selftest-audit-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(auditDir)
	if err := runAuditSmoke(stdout, auditDir); err != nil {
		return fmt.Errorf("selftest audit leg: %w", err)
	}
	return nil
}

// anomalyEvents injects an off-hours exfiltration pattern for one user:
// removable-device connections to never-seen hosts, local→removable file
// copies of fresh files, and executable uploads to an external domain —
// activity spanning all three ACOBE aspects.
func anomalyEvents(user string, d cert.Day) []cert.Event {
	at := func(min int) time.Time { return d.Date().Add(22*time.Hour + time.Duration(min)*time.Minute) }
	var evs []cert.Event
	for k := 0; k < stEventsPerIn; k++ {
		pc := fmt.Sprintf("PC-EXFIL-%d-%d", d, k)
		evs = append(evs,
			cert.Event{Type: cert.EventDevice, Time: at(3 * k), User: user, PC: pc, Activity: cert.ActConnect},
			cert.Event{Type: cert.EventDevice, Time: at(3*k + 2), User: user, PC: pc, Activity: cert.ActDisconnect},
			cert.Event{Type: cert.EventFile, Time: at(3*k + 1), User: user, PC: pc, Activity: cert.ActFileCopy,
				Direction: cert.DirLocalToRemote, FileID: fmt.Sprintf("F-EXFIL-%d-%d", d, k)},
			cert.Event{Type: cert.EventHTTP, Time: at(3*k + 2), User: user, PC: pc, Activity: cert.ActUpload,
				Domain: "exfil.invalid", FileType: "exe"},
		)
	}
	return evs
}

// ingestBody encodes events as a POST /v1/ingest body: one event per
// line, in the daemon's own wire encoding.
func ingestBody(events []cert.Event) (*bytes.Reader, error) {
	var body []byte
	for i := range events {
		var err error
		if body, err = daemon.AppendEvent(body, daemon.Event{Cert: &events[i]}); err != nil {
			return nil, err
		}
		body = append(body, '\n')
	}
	return bytes.NewReader(body), nil
}

// postEvents ships one day's events as a JSONL ingest request.
func postEvents(ctx context.Context, client *http.Client, base string, events []cert.Event) error {
	body, err := ingestBody(events)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	return checkResp(client.Do(req))
}

func post(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	return checkResp(client.Do(req))
}

// rankResult mirrors the daemon's /v1/rank response shape.
type rankResult struct {
	Aspects []string       `json:"aspects"`
	List    []acobe.Ranked `json:"list"`
}

func getJSON(ctx context.Context, client *http.Client, url string) (*rankResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	var out rankResult
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func checkResp(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", resp.Request.URL, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

func joinInts(ns []int) string {
	var buf bytes.Buffer
	for i, n := range ns {
		if i > 0 {
			buf.WriteByte('|')
		}
		fmt.Fprintf(&buf, "%d", n)
	}
	return buf.String()
}
