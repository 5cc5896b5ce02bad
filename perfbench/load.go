package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bcq/internal/live"
	"bcq/internal/value"
)

// opKind is what one scheduled op does over HTTP.
type opKind uint8

const (
	// opRead is one buffered POST /query.
	opRead opKind = iota
	// opPage is a paged read: a first POST /query with a limit, then one
	// cursor continuation of the same page size.
	opPage
	// opWrite is one POST /ingest batch.
	opWrite
)

// request is one generated op. The program sees it only as an HTTP body
// (e2e run) or as the arguments of the layer calls it causes (traced run).
type request struct {
	kind  opKind
	query string  // query text: a "?" template or a literal query
	args  []int64 // placeholder arguments
	limit int     // page size, opPage only
	ops   []live.Op
}

// body renders the request's first HTTP body.
func (r *request) body() []byte {
	if r.kind == opWrite {
		type opJSON struct {
			Op    string  `json:"op"`
			Rel   string  `json:"rel"`
			Tuple []int64 `json:"tuple"`
		}
		ops := make([]opJSON, len(r.ops))
		for i, op := range r.ops {
			kind := "insert"
			if op.Kind == live.OpDelete {
				kind = "delete"
			}
			tu := make([]int64, len(op.Tuple))
			for j, v := range op.Tuple {
				tu[j] = v.AsInt()
			}
			ops[i] = opJSON{Op: kind, Rel: op.Rel, Tuple: tu}
		}
		return mustJSON(struct {
			Ops []opJSON `json:"ops"`
		}{ops})
	}
	return mustJSON(struct {
		Query string  `json:"query"`
		Args  []int64 `json:"args,omitempty"`
		Limit int     `json:"limit,omitempty"`
	}{r.query, r.args, r.limit})
}

// argValues converts the placeholder arguments for in-process calls.
func (r *request) argValues() []value.Value {
	out := make([]value.Value, len(r.args))
	for i, a := range r.args {
		out[i] = value.Int(a)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and integers reach here
	}
	return b
}

// arrivals returns n due times evenly spaced at rate per second: an open
// loop at constant rate. Every seed sees the same arrival times, so the
// queueing a request meets comes from the system under test, not from
// the luck of a random draw.
func arrivals(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i+1) / rate * float64(time.Second))
	}
	return out
}

// outcome is what the load generator observed for one op. Times are
// offsets from the run's start, like the schedule's due times.
type outcome struct {
	send, end time.Duration
	// from is where the op's latency is measured from: its due time, or,
	// when its connection was idle at the due time, the moment the sleep
	// until then returned. A sleeping timer can overshoot by a
	// millisecond; that lateness is the generator's, not the system's, and
	// load.lag reports it. A busy connection sends late because the system
	// under test is slow, and that wait counts.
	from time.Duration
	// err is empty on success: every response 2xx, no error in a paged
	// trailer, no transport failure.
	err     string
	cached  bool    // answered from the result cache
	fetched int64   // tuples_fetched of the executed read (cumulative over pages)
	bytes   int     // response bytes
	pages   [2]int  // answers in the first page and in the continuation
	more    [2]bool // the page handed back a continuation cursor
}

// queryResponse is the part of a /query response the benchmark reads.
type queryResponse struct {
	Result struct {
		Tuples json.RawMessage `json:"tuples"`
		Stats  struct {
			TuplesFetched int64 `json:"tuples_fetched"`
		} `json:"stats"`
	} `json:"result"`
	Cached     bool   `json:"cached"`
	NextCursor string `json:"next_cursor"`
	Error      string `json:"error"`
}

// drive sends reqs open-loop: op i is due at start+due[i], whatever
// happened to earlier ops. conns workers, each with one connection, take
// ops in schedule order; an op that finds every connection busy waits,
// and that wait counts in its latency, which is measured from the due
// time (see outcome.from). drive returns once every op has completed.
func drive(url string, conns int, start time.Time, reqs []request, bodies [][]byte, due []time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.hc.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				d := time.Until(start.Add(due[i]))
				if d > 0 {
					time.Sleep(d)
				}
				o.send = time.Since(start)
				o.from = due[i]
				if d > 0 {
					o.from = o.send
				}
				c.do(&reqs[i], bodies[i], o)
				o.end = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// client is one load-generator connection.
type client struct {
	url string
	hc  *http.Client
	buf bytes.Buffer
}

// newClient opens a client that holds at most one connection.
func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// post sends one body and leaves the response in c.buf.
func (c *client) post(path string, body []byte) error {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

// query posts one /query body and decodes the response.
func (c *client) query(body []byte, o *outcome) (*queryResponse, error) {
	if err := c.post("/query", body); err != nil {
		return nil, err
	}
	o.bytes += c.buf.Len()
	var qr queryResponse
	if err := json.Unmarshal(c.buf.Bytes(), &qr); err != nil {
		return nil, fmt.Errorf("/query: decoding response: %w", err)
	}
	if qr.Error != "" {
		return nil, fmt.Errorf("/query: %s", qr.Error)
	}
	return &qr, nil
}

// do performs one op and records its outcome (not its times).
func (c *client) do(r *request, body []byte, o *outcome) {
	var err error
	switch r.kind {
	case opWrite:
		err = c.post("/ingest", body)
		o.bytes = c.buf.Len()
	case opRead:
		var qr *queryResponse
		if qr, err = c.query(body, o); err == nil {
			o.cached, o.fetched = qr.Cached, qr.Result.Stats.TuplesFetched
		}
	case opPage:
		_, err = c.page(body, r.limit, o, false)
	}
	if err != nil {
		o.err = err.Error()
	}
}

// page performs a first page and, when it hands back a cursor, one
// continuation of the same size. With keep set it returns the answers of
// both pages.
func (c *client) page(body []byte, limit int, o *outcome, keep bool) ([]json.RawMessage, error) {
	var kept []json.RawMessage
	for p := 0; p < 2; p++ {
		qr, err := c.query(body, o)
		if err != nil {
			return nil, err
		}
		var rows []json.RawMessage
		if err := json.Unmarshal(qr.Result.Tuples, &rows); err != nil {
			return nil, fmt.Errorf("/query: decoding page: %w", err)
		}
		if keep {
			kept = append(kept, rows...)
		}
		o.pages[p] = len(rows)
		o.more[p] = qr.NextCursor != ""
		o.fetched = qr.Result.Stats.TuplesFetched
		if !o.more[p] {
			break
		}
		body = mustJSON(struct {
			Cursor string `json:"cursor"`
			Limit  int    `json:"limit"`
		}{qr.NextCursor, limit})
	}
	return kept, nil
}

// fetchStats reads GET /stats into v.
func fetchStats(url string, v any) error {
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return json.Unmarshal(b, v)
}
