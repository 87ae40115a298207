package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// rankHTTP issues GET /v1/rank and checks that the response echoes the
// requested span and carries RankTop rows.
func (c *cycle) rankHTTP(ctx context.Context, d int) error {
	from := c.sp.rankFrom(d)
	url := fmt.Sprintf("%s/v1/rank?from=%d&to=%d&top=%d", c.base, from, d, c.sp.RankTop)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
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
	var doc struct {
		From, To int
		List     []json.RawMessage
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if want := min(c.sp.RankTop, len(c.in.ids)); doc.From != from || doc.To != d || len(doc.List) != want {
		return fmt.Errorf("rank response %d..%d with %d rows, want %d..%d with %d", doc.From, doc.To, len(doc.List), from, d, want)
	}
	return nil
}

// post issues one POST and drains the response.
func (c *cycle) post(ctx context.Context, path string, body io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // the status decides; a short read only loses error text
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}
