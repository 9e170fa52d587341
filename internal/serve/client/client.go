// Package client is the thin Go client for the faserve campaign service.
// It backs the service tests and the -server modes of fadetect and
// farepair: submit a job, follow its SSE progress stream, and fetch the
// stored log and report — which the server guarantees are byte-identical
// to a local run over the same app and flags.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"failatomic/internal/cli"
	"failatomic/internal/serve"
)

// Client talks to one faserve instance.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithToken sends "Authorization: Bearer <token>" on every request —
// required against a faserve started with -token/-read-token.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// authorize attaches the bearer token, when configured.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// QueueFullError reports a 429 admission refusal and carries the
// server's Retry-After hint.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("server queue is full (retry after %v)", e.RetryAfter)
}

// ErrStreamEnded reports an SSE stream that closed without a terminal
// event — the server died or drained mid-job.
var ErrStreamEnded = errors.New("client: event stream ended before the job finished")

// apiError mirrors the server's JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// do issues one request and decodes the JSON response into out (when
// non-nil), converting non-2xx responses into errors.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s: %w", method, path, err)
	}
	return nil
}

// responseError maps an error response to a typed or descriptive error.
func responseError(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			after = time.Duration(secs) * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		return &QueueFullError{RetryAfter: after}
	}
	var ae apiError
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
		return fmt.Errorf("client: server returned %s: %s", resp.Status, ae.Error)
	}
	return fmt.Errorf("client: server returned %s", resp.Status)
}

// Submit enqueues a campaign job and returns its id. A full queue
// surfaces as *QueueFullError.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (string, error) {
	var st serve.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// Status fetches the job's current status.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// List fetches one page of the server's job index. Zero-value query
// fields mean "no filter"; page through by feeding NextCursor back into
// q.Cursor until it comes back empty.
func (c *Client) List(ctx context.Context, q serve.ListQuery) (serve.JobList, error) {
	params := url.Values{}
	for k, v := range map[string]string{
		"token": q.Token, "kind": q.Kind, "state": q.State, "crontab": q.Crontab, "cursor": q.Cursor,
	} {
		if v != "" {
			params.Set(k, v)
		}
	}
	if q.Limit > 0 {
		params.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/v1/jobs"
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	var list serve.JobList
	err := c.do(ctx, http.MethodGet, path, nil, &list)
	return list, err
}

// CrontabCreate installs a recurring spec and returns the stored
// crontab (with its server-assigned id).
func (c *Client) CrontabCreate(ctx context.Context, cs serve.CrontabSpec) (serve.Crontab, error) {
	var ct serve.Crontab
	err := c.do(ctx, http.MethodPost, "/v1/crontabs", cs, &ct)
	return ct, err
}

// Crontabs lists the installed recurring specs.
func (c *Client) Crontabs(ctx context.Context) ([]serve.Crontab, error) {
	var list []serve.Crontab
	err := c.do(ctx, http.MethodGet, "/v1/crontabs", nil, &list)
	return list, err
}

// CrontabDelete uninstalls a recurring spec by id.
func (c *Client) CrontabDelete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/crontabs/"+id, nil, nil)
}

// Log fetches the final injection log of a done job.
func (c *Client) Log(ctx context.Context, id string) ([]byte, error) {
	return c.fetch(ctx, "/v1/jobs/"+id+"/log")
}

// Report fetches the rendered classification report of a done job.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	return c.fetch(ctx, "/v1/jobs/"+id+"/report")
}

func (c *Client) fetch(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return data, nil
}

// Follow subscribes to the job's SSE stream and invokes fn (when
// non-nil) for every event, in order, until the terminal event arrives.
// It returns the terminal event; a stream that ends without one (server
// death or drain) returns ErrStreamEnded.
func (c *Client) Follow(ctx context.Context, id string, fn func(serve.Event) error) (serve.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return serve.Event{}, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.Event{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return serve.Event{}, err
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var e serve.Event
			if err := json.Unmarshal(data, &e); err != nil {
				return serve.Event{}, fmt.Errorf("client: bad event %q: %w", data, err)
			}
			data = nil
			if fn != nil {
				if err := fn(e); err != nil {
					return serve.Event{}, err
				}
			}
			if e.Type == serve.EventEnd {
				return e, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Event{}, fmt.Errorf("client: %w (%w)", ErrStreamEnded, err)
	}
	return serve.Event{}, ErrStreamEnded
}

// Wait follows the job to completion and returns its terminal status.
func (c *Client) Wait(ctx context.Context, id string) (serve.JobStatus, error) {
	if _, err := c.Follow(ctx, id, nil); err != nil {
		return serve.JobStatus{}, err
	}
	return c.Status(ctx, id)
}

// RunJob is the -server mode of fadetect and farepair: submit spec to the
// faserve instance at base, wait for it, and print what the same local
// invocation prints — with logPath, the stored log is written there and
// announced first, then the stored report goes to stdout. Progress and a
// drifted job's finding go to stderr under prog. It returns the job's
// exit code.
func RunJob(ctx context.Context, base, token, prog string, spec serve.JobSpec, logPath string) (int, error) {
	var opts []Option
	if token != "" {
		opts = append(opts, WithToken(token))
	}
	c := New(base, opts...)
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return cli.ExitFailure, err
	}
	fmt.Fprintf(os.Stderr, "%s: submitted job %s to %s\n", prog, id, base)
	st, err := c.Wait(ctx, id)
	if err != nil {
		return cli.ExitFailure, fmt.Errorf("job %s: %w", id, err)
	}
	// A drifted job stored its log and report like a done one; the gate's
	// finding goes to stderr and the exit code carries cli.ExitDrift.
	if st.State != serve.StateDone && st.State != serve.StateDrifted {
		return cli.ExitFailure, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	if st.State == serve.StateDrifted {
		fmt.Fprintf(os.Stderr, "%s: job %s drifted: %s\n", prog, id, st.Error)
	}
	if logPath != "" {
		data, err := c.Log(ctx, id)
		if err != nil {
			return cli.ExitFailure, err
		}
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			return cli.ExitFailure, err
		}
		fmt.Printf("injection log written to %s\n", logPath)
	}
	report, err := c.Report(ctx, id)
	if err != nil {
		return cli.ExitFailure, err
	}
	os.Stdout.Write(report)
	return st.ExitCode, nil
}
