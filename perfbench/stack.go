package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/serve"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// stack is the system under test, in this process: a store, the engine
// over it and, for the e2e run, serve.Server behind a loopback listener.
// Every layer runs at its zero-value defaults.
type stack struct {
	base  *storage.Database // the generated dataset, before the store took it
	ss    *shard.Store      // set on sharded workloads
	ls    *live.Store       // set on single-store workloads
	eng   *engine.Engine
	apply func([]live.Op) error

	srv *serve.Server
	hs  *http.Server
	url string
	dir string // durable store directory, removed by close

	dataS, storeS, setupS float64 // set-up phases, in seconds
}

// build stands the stack up for w: data, store and engine, and with
// listen set the server and its listener. It returns once a GET /healthz
// answers, and records how long each phase took.
func build(w *workload, seed int64, dir string, listen bool) (*stack, error) {
	t0 := time.Now()
	base, acc, err := w.data(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating data: %w", w.name, err)
	}
	s := &stack{base: base, dataS: time.Since(t0).Seconds()}
	t1 := time.Now()
	if err := s.open(w, acc, dir); err != nil {
		return nil, err
	}
	s.storeS = time.Since(t1).Seconds()
	if listen {
		if err := s.listen(); err != nil {
			s.close()
			return nil, err
		}
	}
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// open builds the store and the engine over it.
func (s *stack) open(w *workload, acc *schema.AccessSchema, dir string) error {
	var err error
	if w.shards > 0 {
		s.dir = dir
		if s.ss, err = shard.New(s.base, acc, shard.Options{Shards: w.shards, Dir: dir}); err != nil {
			return fmt.Errorf("%s: opening sharded store: %w", w.name, err)
		}
		s.apply = s.ss.Apply
		s.eng, err = engine.NewSharded(s.ss, engine.Options{})
	} else {
		if s.ls, err = live.New(s.base, acc, live.Options{}); err != nil {
			return fmt.Errorf("%s: opening live store: %w", w.name, err)
		}
		s.apply = func(ops []live.Op) error {
			_, err := s.ls.Apply(ops)
			return err
		}
		s.eng, err = engine.NewLive(s.ls, engine.Options{})
	}
	if err != nil {
		s.closeStore()
		return fmt.Errorf("%s: building engine: %w", w.name, err)
	}
	return nil
}

// listen puts serve.Server behind a loopback listener and waits until it
// answers.
func (s *stack) listen() error {
	srv, err := serve.New(s.eng, serve.Options{Ingest: s.apply, CloseStore: s.closeStore})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.url = srv, "http://"+ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { _ = s.hs.Serve(ln) }() // returns ErrServerClosed once close shuts it down
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return nil
}

// closeStore checkpoints and closes the store.
func (s *stack) closeStore() error {
	if s.ss != nil {
		return s.ss.Close()
	}
	if s.ls != nil {
		return s.ls.Close()
	}
	return nil
}

// close stops the listener, drains the server, closes the store and
// removes its directory.
func (s *stack) close() error {
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, s.hs.Shutdown(ctx), s.srv.Shutdown(ctx))
	} else {
		errs = append(errs, s.closeStore())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// freeze materializes the store's current state as a sealed database
// with the row indexes the baseline evaluator uses.
func (s *stack) freeze(acc *schema.AccessSchema) (*storage.Database, error) {
	var db *storage.Database
	var err error
	if s.ss != nil {
		db, err = s.ss.View().Freeze()
	} else {
		db, err = s.ls.Snapshot().Freeze()
	}
	if err != nil {
		return nil, err
	}
	return db, db.BuildRowIndexes(acc)
}

// liveCount is the number of live copies of t in rel, over all shards.
func (s *stack) liveCount(rel string, t value.Tuple) int {
	if s.ls != nil {
		return s.ls.LiveCount(rel, t)
	}
	n := 0
	for i := 0; i < s.ss.NumShards(); i++ {
		n += s.ss.Shard(i).LiveCount(rel, t)
	}
	return n
}

// ingestStats sums the write-side counters over the store's shards.
func (s *stack) ingestStats() live.IngestStats {
	if s.ss != nil {
		return s.ss.IngestStats()
	}
	return s.ls.IngestStats()
}

// liveStores lists the store's live stores: its shards, or itself.
func (s *stack) liveStores() []*live.Store {
	if s.ls != nil {
		return []*live.Store{s.ls}
	}
	out := make([]*live.Store, s.ss.NumShards())
	for i := range out {
		out[i] = s.ss.Shard(i)
	}
	return out
}
