package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmmkit/internal/dspace"
)

var updateSearchGolden = flag.Bool("update", false, "rewrite the search goldens (testdata/golden_search.json with the mid-run snapshots, testdata/golden_space.json) from current behavior")

// goldenFitness is the deterministic evaluator the search golden drives
// the genetic strategies with: an FNV-1a hash of the genome spread over
// footprint and work, with roughly one vector in eleven marked Failed.
// It has no structure a strategy could exploit, so the proposal stream
// exercises selection, breeding, repair and dedup rather than
// converging in a generation or two.
func goldenFitness(v dspace.Vector) Result {
	h := uint64(14695981039346656037)
	for t := 0; t < dspace.NumTrees; t++ {
		h ^= uint64(v.Get(dspace.Tree(t)))
		h *= 1099511628211
	}
	return Result{
		Vector:    v,
		Footprint: 1000 + int64(h%50000),
		Work:      int64((h >> 32) % 20000),
		Failed:    h%11 == 0,
	}
}

// goldenCase is one pinned search configuration. ResumeAfter is the
// number of proposed batches after which the committed mid-run snapshot
// testdata/<name>.snap was taken.
type goldenCase struct {
	name        string
	nsga        bool
	seed        int64
	cfg         GAConfig
	resumeAfter int
}

func goldenCases() []goldenCase {
	fix := Fixed{dspace.B1PoolDivision: dspace.PoolPerClass, dspace.C2FreeOrder: dspace.AddressOrder}
	var cases []goldenCase
	for _, nsga := range []bool{false, true} {
		kind := "ga"
		if nsga {
			kind = "nsga"
		}
		cases = append(cases,
			goldenCase{kind + "-seed1", nsga, 1, GAConfig{Population: 12, Generations: 8, Patience: 8}, 3},
			goldenCase{kind + "-seed7-fix", nsga, 7, GAConfig{Population: 10, Generations: 10, Patience: 4, Fix: fix}, 3},
			// 53 is not a multiple of the population, so the budget trims
			// the fifth generation part way through.
			goldenCase{kind + "-seed7-budget", nsga, 7, GAConfig{Population: 12, Generations: 12, Patience: 12, MaxEvaluations: 53}, 2},
		)
	}
	return cases
}

func (c goldenCase) strategy() snapStrategy {
	if c.nsga {
		return NewNSGA(c.seed, c.cfg)
	}
	return NewGA(c.seed, c.cfg)
}

// goldenRecord is what testdata/golden_search.json pins per case.
type goldenRecord struct {
	// Proposals is the SHA-256 of the whole proposal stream, batch
	// boundaries included (see proposalDigest).
	Proposals   string `json:"proposals"`
	Batches     int    `json:"batches"`
	Evaluations int    `json:"evaluations"`
	Generations int    `json:"generations"`
	// Snapshots holds the SHA-256 of the Snapshot bytes after every
	// proposed batch, then once more after the final, empty Next.
	Snapshots []string `json:"snapshots"`
	// Best (GA) or Front (NSGA) is the final search product.
	Best  *resultState  `json:"best,omitempty"`
	Front []resultState `json:"front,omitempty"`
	// Resume is the digest of the proposals after ResumeAfter batches:
	// the uninterrupted run's tail, and what a strategy restored from
	// testdata/<name>.snap must propose.
	ResumeAfter int    `json:"resume_after"`
	Resume      string `json:"resume"`
}

// proposalDigest hashes a proposal stream batch by batch: each batch is
// its length as a uint32 followed by every vector's leaves in tree order.
type proposalDigest struct{ h hash.Hash }

func newProposalDigest() proposalDigest { return proposalDigest{sha256.New()} }

func (d proposalDigest) add(batch []dspace.Vector) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(batch)))
	d.h.Write(n[:])
	for _, v := range batch {
		s := vectorToState(v)
		d.h.Write(s[:])
	}
}

func (d proposalDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func goldenEvaluate(batch []dspace.Vector) []Result {
	out := make([]Result, len(batch))
	for i, v := range batch {
		out[i] = goldenFitness(v)
	}
	return out
}

// runGolden drives the case's strategy to the end and records it. The
// snapshot taken after ResumeAfter batches is returned as well.
func runGolden(t *testing.T, c goldenCase) (goldenRecord, []byte) {
	t.Helper()
	s := c.strategy()
	all, tail := newProposalDigest(), newProposalDigest()
	var rec goldenRecord
	var mid []byte
	snapshot := func() {
		b, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot after %d batches: %v", rec.Batches, err)
		}
		rec.Snapshots = append(rec.Snapshots, sha(b))
		if rec.Batches == c.resumeAfter && mid == nil {
			mid = b
		}
	}
	for {
		if rec.Batches > 1000 {
			t.Fatal("strategy did not terminate")
		}
		batch := s.Next()
		if len(batch) == 0 {
			break
		}
		all.add(batch)
		if rec.Batches >= c.resumeAfter {
			tail.add(batch)
		}
		s.Observe(goldenEvaluate(batch))
		rec.Batches++
		snapshot()
	}
	snapshot()
	if mid == nil {
		t.Fatalf("run ended after %d batches, before the resume point %d", rec.Batches, c.resumeAfter)
	}
	rec.Proposals = all.sum()
	rec.ResumeAfter = c.resumeAfter
	rec.Resume = tail.sum()
	rec.Best, rec.Front = finalProduct(s)
	switch st := s.(type) {
	case *GA:
		rec.Evaluations, rec.Generations = st.Evaluations(), st.Generation()
	case *NSGA:
		rec.Evaluations, rec.Generations = st.Evaluations(), st.Generation()
	}
	return rec, mid
}

func finalProduct(s Strategy) (*resultState, []resultState) {
	switch st := s.(type) {
	case *GA:
		if b, ok := st.Best(); ok {
			r := resultToState(b)
			return &r, nil
		}
	case *NSGA:
		return nil, resultsToState(st.Front())
	}
	return nil, nil
}

// TestSearchGolden is the cross-version drift guard for the genetic
// strategies: for every pinned configuration, the proposal stream, the
// snapshot bytes after every generation and the final best/front must
// match testdata/golden_search.json, and a strategy restored from the
// committed mid-run snapshot must continue exactly as the uninterrupted
// run did. Regenerate (-update) only for a deliberate change to the
// search's behaviour or its snapshot format: a refactor must keep it.
func TestSearchGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_search.json")
	got := make(map[string]goldenRecord)
	mids := make(map[string][]byte)
	for _, c := range goldenCases() {
		got[c.name], mids[c.name] = runGolden(t, c)
	}
	if *updateSearchGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, b := range mids {
			if err := os.WriteFile(filepath.Join("testdata", name+".snap"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %s and %d snapshots", path, len(mids))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("%s has no record for %s", path, c.name)
			}
			g := got[c.name]
			if g.Proposals != w.Proposals || g.Batches != w.Batches {
				t.Errorf("proposal stream: %d batches digest %s, want %d batches digest %s",
					g.Batches, g.Proposals, w.Batches, w.Proposals)
			}
			if g.Evaluations != w.Evaluations || g.Generations != w.Generations {
				t.Errorf("evaluations/generations = %d/%d, want %d/%d",
					g.Evaluations, g.Generations, w.Evaluations, w.Generations)
			}
			for i := 0; i < len(g.Snapshots) || i < len(w.Snapshots); i++ {
				var gs, ws string
				if i < len(g.Snapshots) {
					gs = g.Snapshots[i]
				}
				if i < len(w.Snapshots) {
					ws = w.Snapshots[i]
				}
				if gs != ws {
					t.Errorf("snapshot after batch %d: digest %q, want %q", i+1, gs, ws)
					break
				}
			}
			if !reflect.DeepEqual(g.Best, w.Best) || !reflect.DeepEqual(g.Front, w.Front) {
				t.Errorf("final product: best %+v front %+v, want best %+v front %+v", g.Best, g.Front, w.Best, w.Front)
			}
			if g.ResumeAfter != w.ResumeAfter || g.Resume != w.Resume {
				t.Errorf("uninterrupted tail after %d batches: digest %s, want %s after %d",
					g.ResumeAfter, g.Resume, w.Resume, w.ResumeAfter)
			}

			// The committed snapshot was written by an earlier build:
			// restoring it must continue the run exactly.
			snap, err := os.ReadFile(filepath.Join("testdata", c.name+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			if i := w.ResumeAfter - 1; i < 0 || i >= len(w.Snapshots) || sha(snap) != w.Snapshots[i] {
				t.Errorf("testdata/%s.snap is not the snapshot pinned after batch %d", c.name, w.ResumeAfter)
			}
			s := c.strategy()
			if err := s.Restore(snap); err != nil {
				t.Fatalf("Restore(testdata/%s.snap): %v", c.name, err)
			}
			cont := newProposalDigest()
			for i := 0; ; i++ {
				if i > 1000 {
					t.Fatal("restored strategy did not terminate")
				}
				batch := s.Next()
				if len(batch) == 0 {
					break
				}
				cont.add(batch)
				s.Observe(goldenEvaluate(batch))
			}
			if d := cont.sum(); d != w.Resume {
				t.Errorf("continuation from testdata/%s.snap: digest %s, want %s", c.name, d, w.Resume)
			}
			if best, front := finalProduct(s); !reflect.DeepEqual(best, w.Best) || !reflect.DeepEqual(front, w.Front) {
				t.Errorf("resumed final product: best %+v front %+v, want best %+v front %+v", best, front, w.Best, w.Front)
			}
		})
	}
}
