package main

import (
	"fmt"
	"math/rand"
	"time"

	"bcq/internal/datagen"
	"bcq/internal/live"
	"bcq/internal/querygen"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// workload is one traffic mix over one dataset. Rates, mix shares and
// dataset sizes are constants: a parent commit and a change see the same
// load, and nothing is calibrated at run time.
type workload struct {
	name string
	// rate is the offered load in ops per second, about half of what a
	// 2-vCPU box sustains for the mix.
	rate float64
	// readShare is the share of ops that are reads.
	readShare float64
	// shards > 0 puts the data on a durable sharded store with that many
	// shards; 0 on one in-memory live store.
	shards int
	// setups is how many times a run stands the stack up; setup_s is the
	// median. Fast set-ups are dominated by fsync and scheduling jitter,
	// so they are repeated more.
	setups int
	// data generates the base dataset from the seed, indexes built.
	data func(seed int64) (*storage.Database, *schema.AccessSchema, error)
	// gen draws n requests from the seed. It may read base, which data
	// built from the same seed, but no store.
	gen func(seed int64, base *storage.Database, n int) ([]request, error)
}

// warmup is the leading part of every schedule whose ops are sent but
// not measured: it opens the connections, fills the plan cache on
// template workloads, and absorbs the first garbage collection after
// set-up, which on fanout's 250 MB heap otherwise dominates the tail.
const warmup = 3 * time.Second

var workloads = []*workload{pointRW, adhocPlan, fanout}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// point-rw: the paper's Example-1 social schema at bqserve's default
// scale on a 2-shard durable store, Q1-style and single-hop templates
// with Zipf-skewed arguments, beside write batches.
const (
	pointRWScale  = 0.25
	pointRWShards = 2
	pointRWRate   = 800
	// pointRWWrites is the share of ops that are write batches; the reads
	// split over the templates below by pointRWMix.
	pointRWWrites = 0.10
	zipfS         = 1.1
	// New entities written by the benchmark get ids from these bases, far
	// above every generated id, so each insert is fresh.
	newPhotoBase  = 1 << 30
	newFriendBase = 1 << 31
)

// pointRWTemplates are the read templates; pointRWMix their shares.
var pointRWTemplates = []string{
	// Q1 of Example 1: photos in album ? where user ? was tagged by a friend.
	"select t1.photo_id from in_album as t1, friends as t2, tagging as t3 " +
		"where t1.album_id = ? and t2.user_id = ? and t1.photo_id = t3.photo_id " +
		"and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id",
	"select t1.photo_id from in_album as t1 where t1.album_id = ?",
	"select t1.friend_id from friends as t1 where t1.user_id = ?",
	"select t1.tagger_id from tagging as t1 where t1.photo_id = ? and t1.taggee_id = ?",
}

var pointRWMix = []float64{0.35, 0.2, 0.2, 0.25}

var pointRW = &workload{
	name:      "point-rw",
	rate:      pointRWRate,
	readShare: 1 - pointRWWrites,
	shards:    pointRWShards,
	setups:    9,
	data: func(int64) (*storage.Database, *schema.AccessSchema, error) {
		ds := datagen.Social()
		db, err := ds.Build(pointRWScale)
		return db, ds.Access, err
	},
	gen: genPointRW,
}

func genPointRW(seed int64, base *storage.Database, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	albums := datagen.Social().SpaceCount("album", pointRWScale)
	users := datagen.Social().SpaceCount("user", pointRWScale)
	zAlbum := rand.NewZipf(rng, zipfS, 1, uint64(albums-1))
	zUser := rand.NewZipf(rng, zipfS, 1, uint64(users-1))
	// Distinct (photo, taggee) pairs and each user's friends, in load order.
	var pairs [][2]int64
	seen := map[[2]int64]bool{}
	for _, t := range base.MustRelation("tagging").Tuples {
		p := [2]int64{t[0].AsInt(), t[2].AsInt()}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	friendsOf := map[int64][]int64{}
	for _, t := range base.MustRelation("friends").Tuples {
		u := t[0].AsInt()
		friendsOf[u] = append(friendsOf[u], t[1].AsInt())
	}
	zPair := rand.NewZipf(rng, zipfS, 1, uint64(len(pairs)-1))

	out := make([]request, n)
	writes := int64(0)
	for i := range out {
		if rng.Float64() < pointRWWrites {
			// A write batch: a new photo in an album, tagged with a user by
			// one of that user's friends, and a new friendship; every
			// second batch deletes the friendship again. Each op is fresh
			// or deletes this batch's own insert, so every op is admitted
			// whatever order concurrent batches commit in.
			a, u := rng.Int63n(albums), rng.Int63n(users)
			fs := friendsOf[u]
			f := fs[rng.Intn(len(fs))]
			p, nf := int64(newPhotoBase)+writes, int64(newFriendBase)+writes
			ops := []live.Op{
				live.Insert("in_album", ints(p, a)),
				live.Insert("tagging", ints(p, f, u)),
				live.Insert("friends", ints(u, nf)),
			}
			if writes%2 == 1 {
				ops = append(ops, live.Delete("friends", ints(u, nf)))
			}
			out[i] = request{kind: opWrite, ops: ops}
			writes++
			continue
		}
		var args []int64
		t := pick(rng, pointRWMix)
		switch t {
		case 0:
			args = []int64{int64(zAlbum.Uint64()), int64(zUser.Uint64())}
		case 1:
			args = []int64{int64(zAlbum.Uint64())}
		case 2:
			args = []int64{int64(zUser.Uint64())}
		case 3:
			p := pairs[zPair.Uint64()]
			args = []int64{p[0], p[1]}
		}
		out[i] = request{kind: opRead, query: pointRWTemplates[t], args: args}
	}
	return out, nil
}

// adhoc-plan: TPC-H on an in-memory live store, read-only; every request
// is a distinct effectively bounded query, so every prepare plans.
const (
	adhocScale = 1.0 / 16
	adhocRate  = 48
)

var adhocPlan = &workload{
	name:      "adhoc-plan",
	rate:      adhocRate,
	readShare: 1,
	setups:    5,
	data: func(int64) (*storage.Database, *schema.AccessSchema, error) {
		ds := datagen.TPCH()
		db, err := ds.Build(adhocScale)
		return db, ds.Access, err
	},
	gen: genAdhoc,
}

// genAdhoc takes the first n effectively bounded shapes querygen draws
// over querygen seeds 1, 2, ... and renders each with fresh literal pins,
// each drawn from the seed within its attribute's domain. Every seed plans
// the same shapes in the same order, so the planner's heavy-tailed cost,
// and the queueing behind its slowest shapes, do not vary from seed to
// seed. No two requests share a text, and so none shares a plan-cache
// fingerprint or a result-cache key.
func genAdhoc(seed int64, _ *storage.Database, n int) ([]request, error) {
	ds := datagen.TPCH()
	var shapes []*spc.Query
	for qseed := int64(1); len(shapes) < n; qseed++ {
		wl, err := querygen.Workload(ds, qseed)
		if err != nil {
			return nil, err
		}
		for _, wq := range wl {
			if wq.WantEB && len(shapes) < n {
				shapes = append(shapes, wq.Query)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]request, n)
	for i, shape := range shapes {
		for {
			q := shape.Clone()
			for k, c := range q.EqConsts {
				if dom := pinDomain(ds, q.Atoms[c.A.Atom].Rel, c.A.Attr); dom > 0 {
					q.EqConsts[k].C = value.Int(rng.Int63n(dom))
				}
			}
			if text := q.String(); !seen[text] {
				seen[text] = true
				out[i] = request{kind: opRead, query: text}
				break
			}
		}
	}
	return out, nil
}

// pinDomain is the range [0, dom) querygen draws a pin on rel.attr from:
// the guaranteed population of the attribute's entity space, or its
// bounded domain. 0 means the attribute has neither.
func pinDomain(ds *datagen.Dataset, rel, attr string) int64 {
	rs, ok := ds.RelSpecByName(rel)
	if !ok {
		return 0
	}
	for _, a := range rs.Attrs {
		if a.Name != attr || a.Fn != nil {
			continue
		}
		switch a.Gen {
		case datagen.GenDom:
			return a.Arg
		case datagen.GenGroup:
			return ds.SpaceMin(rs.GroupSpace)
		case datagen.GenMod, datagen.GenRef:
			if a.Space != "" {
				return ds.SpaceMin(a.Space)
			}
		}
	}
	return 0
}

// fanout: a seeded friends graph under the Example-1 constraint, read by
// 2-hop friends-of-friends queries with full answers and 3-hop queries
// paged with a limit.
const (
	fanoutUsers   = 20000
	fanoutFriends = 32
	fanoutRate    = 60
	// fanoutPaged is the share of 3-hop paged reads; fanoutPage their
	// page size.
	fanoutPaged = 0.2
	fanoutPage  = 64
)

var fanoutCatalog = schema.MustCatalog(schema.MustRelation("friends", "user_id", "friend_id"))

var fanoutAccess = schema.MustAccessSchema(
	schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000))

const (
	fanout2Hop = "select f2.friend_id from friends as f1, friends as f2 " +
		"where f1.user_id = ? and f2.user_id = f1.friend_id"
	fanout3Hop = "select f3.friend_id from friends as f1, friends as f2, friends as f3 " +
		"where f1.user_id = ? and f2.user_id = f1.friend_id and f3.user_id = f2.friend_id"
)

var fanout = &workload{
	name:      "fanout",
	rate:      fanoutRate,
	readShare: 1,
	setups:    3,
	data:      genFriendsGraph,
	gen:       genFanout,
}

// genFriendsGraph gives every user fanoutFriends distinct friends other
// than itself, drawn uniformly from the seed.
func genFriendsGraph(seed int64) (*storage.Database, *schema.AccessSchema, error) {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase(fanoutCatalog)
	mine := make(map[int64]bool, fanoutFriends)
	for u := int64(0); u < fanoutUsers; u++ {
		clear(mine)
		for len(mine) < fanoutFriends {
			f := rng.Int63n(fanoutUsers)
			if f == u || mine[f] {
				continue
			}
			mine[f] = true
			if err := db.Insert("friends", ints(u, f)); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, fanoutAccess, db.BuildIndexes(fanoutAccess)
}

// genFanout reads users in a seeded permutation, so no user is read twice
// in a run and the result cache never answers.
func genFanout(seed int64, _ *storage.Database, n int) ([]request, error) {
	if n > fanoutUsers {
		return nil, fmt.Errorf("fanout: %d requests exceed the %d users", n, fanoutUsers)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(fanoutUsers)
	out := make([]request, n)
	for i := range out {
		u := []int64{int64(perm[i])}
		if rng.Float64() < fanoutPaged {
			out[i] = request{kind: opPage, query: fanout3Hop, args: u, limit: fanoutPage}
		} else {
			out[i] = request{kind: opRead, query: fanout2Hop, args: u}
		}
	}
	return out, nil
}

// pick draws an index with the given shares.
func pick(rng *rand.Rand, shares []float64) int {
	x := rng.Float64()
	for i, s := range shares {
		if x < s {
			return i
		}
		x -= s
	}
	return len(shares) - 1
}

func ints(xs ...int64) value.Tuple {
	t := make(value.Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.Int(x)
	}
	return t
}
