package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	dawningcloud "repro"
	"repro/internal/service/api"
)

// server is an in-process dcserve: the API handler over an engine, on a
// loopback listener.
type server struct {
	eng  *dawningcloud.Engine
	http *http.Server
	url  string
	done chan error

	closeOnce sync.Once
	closeErr  error
}

func startServer(eng *dawningcloud.Engine) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		eng:  eng,
		http: &http.Server{Handler: api.New(eng), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// healthy polls /healthz until it answers 200.
func (s *server) healthy(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the engine's run service down (a run still waiting for
// tasks is canceled, which ends its event streams), then stops the HTTP
// server once its handlers return. Later calls return the first result.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := errors.Join(s.eng.Shutdown(ctx), s.http.Shutdown(ctx))
		if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		s.closeErr = err
	})
	return s.closeErr
}

// newClient is a keep-alive HTTP client holding at most conns
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// call does one request and reads the whole answer.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit POSTs a scenario spec to /v1/runs on serial cells and returns
// the run ID and whether the service deduplicated it onto existing work.
func submit(c *http.Client, base string, spec []byte) (id string, deduped bool, err error) {
	body, err := json.Marshal(struct {
		ScenarioSpec json.RawMessage `json:"scenario_spec"`
		Workers      int             `json:"workers"`
	}{spec, 1})
	if err != nil {
		return "", false, err
	}
	status, data, err := call(c, http.MethodPost, base+"/v1/runs", body)
	if err != nil {
		return "", false, err
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return "", false, fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(data))
	}
	var resp struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", false, fmt.Errorf("submit: %w", err)
	}
	return resp.ID, resp.Deduped, nil
}

// follow reads a run's event stream (NDJSON, or SSE when sse is set)
// until the server closes it, and returns the run_finished status and
// the number of window_report events seen.
func follow(c *http.Client, base, id string, sse bool) (status string, windows int, err error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return "", 0, err
	}
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if sse {
			var ok bool
			if line, ok = bytes.CutPrefix(line, []byte("data: ")); !ok {
				continue
			}
		}
		var ev struct {
			Type   string `json:"type"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", windows, fmt.Errorf("events: %w", err)
		}
		switch ev.Type {
		case "window_report":
			windows++
		case "run_finished":
			status = ev.Status
		}
	}
	if err := sc.Err(); err != nil {
		return "", windows, fmt.Errorf("events: %w", err)
	}
	if status == "" {
		return "", windows, errors.New("events: stream ended without run_finished")
	}
	return status, windows, nil
}

// runView is the part of GET /v1/runs/{id} the benchmark reads.
type runView struct {
	Status   string     `json:"status"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Result   struct {
		Report json.RawMessage `json:"report"`
		Text   string          `json:"text"`
	} `json:"result"`
}

// fetch GETs a finished run with its result.
func fetch(c *http.Client, base, id string) ([]byte, error) {
	status, data, err := call(c, http.MethodGet, base+"/v1/runs/"+id, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("get: status %d: %s", status, bytes.TrimSpace(data))
	}
	return data, nil
}
