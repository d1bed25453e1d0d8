package diagnose

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// SyndromeFormat names the wire encoding of a Syndrome's JSON form.
// Decoders reject anything else, so the format can evolve behind a new
// tag without silently misreading old captures.
const SyndromeFormat = "pmc-bitset-v1"

// Adversary is the behavior policy of faulty testers. Under the PMC
// model a fault-free tester reports its neighbor's true status and a
// faulty tester reports ANYTHING; the decoder must be correct against
// every policy, so the collector makes the adversary explicit and
// deterministic (seeded) instead of hiding one arbitrary choice.
type Adversary string

const (
	// AdversaryTruthful: faulty testers happen to report the truth
	// (crash-consistent hardware). The easiest case.
	AdversaryTruthful Adversary = "truthful"
	// AdversaryStealth: faulty testers report every neighbor healthy,
	// trying to look like bystanders and hide fellow faults.
	AdversaryStealth Adversary = "stealth"
	// AdversarySlander: faulty testers report every neighbor faulty,
	// trying to frame the healthy majority.
	AdversarySlander Adversary = "slander"
	// AdversaryInvert: faulty testers lie maximally — every report is
	// the negation of the truth. The classical worst case.
	AdversaryInvert Adversary = "invert"
	// AdversaryRandom: faulty testers flip a seeded per-test coin. The
	// bit depends only on (seed, tester, testee), not on collection
	// order, so syndromes replay bit-identically.
	AdversaryRandom Adversary = "random"
)

// Adversaries lists every policy, for exhaustive differentials.
func Adversaries() []Adversary {
	return []Adversary{
		AdversaryTruthful, AdversaryStealth, AdversarySlander,
		AdversaryInvert, AdversaryRandom,
	}
}

// ParseAdversary validates a policy name from a flag or query string.
func ParseAdversary(s string) (Adversary, error) {
	switch Adversary(s) {
	case AdversaryTruthful, AdversaryStealth, AdversarySlander,
		AdversaryInvert, AdversaryRandom:
		return Adversary(s), nil
	case "":
		return AdversaryInvert, nil
	}
	return "", fmt.Errorf("diagnose: unknown adversary %q (want truthful, stealth, slander, invert or random)", s)
}

// report is one faulty tester's claim about testee. truth is the
// testee's real status.
func (a Adversary) report(seed uint64, tester, testee topo.NodeID, truth bool) bool {
	switch a {
	case AdversaryTruthful:
		return truth
	case AdversaryStealth:
		return false
	case AdversarySlander:
		return true
	case AdversaryRandom:
		// One splitmix64 draw keyed by (seed, tester, testee): stable
		// across collection order and platforms.
		r := stats.NewRNG(seed ^ uint64(tester)*0x9e3779b97f4a7c15 ^ uint64(testee)*0xbf58476d1ce4e5b9)
		return r.Uint64()&1 == 1
	default: // AdversaryInvert and the zero value
		return !truth
	}
}

// Syndrome is the outcome matrix of one PMC test round: for every
// directed neighbor pair (u tests v) it records whether the test ran
// and what it reported (0 = testee looked fault-free, 1 = faulty).
// Storage is two flat bitsets indexed by tester*degree + neighbor rank,
// where rank is the testee's position in the tester's dimension-ordered
// neighbor list — 2*Nodes*Degree bits total, matching the flat SoA
// layout of the rest of the data plane.
//
// Tests whose link is itself faulty never complete and are recorded as
// untested: they contribute no constraint to the decoder, which is how
// link faults coexist with node diagnosis (see docs/DIAGNOSIS.md).
type Syndrome struct {
	t       topo.Topology
	deg     int
	tested  bitset.Set
	result  bitset.Set
	scratch []topo.NodeID
}

// NewSyndrome allocates an empty (all-untested) syndrome over t.
func NewSyndrome(t topo.Topology) *Syndrome {
	deg := t.Degree()
	return &Syndrome{
		t:      t,
		deg:    deg,
		tested: bitset.New(t.Nodes() * deg),
		result: bitset.New(t.Nodes() * deg),
	}
}

// Topology returns the topology the syndrome is indexed over.
func (s *Syndrome) Topology() topo.Topology { return s.t }

// rankOf returns testee's rank in tester's neighbor order, or -1 if
// they are not adjacent.
func (s *Syndrome) rankOf(tester, testee topo.NodeID) int {
	found := -1
	s.eachNeighborRank(tester, testee, &found)
	return found
}

func (s *Syndrome) eachNeighborRank(u, v topo.NodeID, out *int) {
	rank := 0
	var buf [8]topo.NodeID
	for d := 0; d < s.t.Dim(); d++ {
		sibs := s.t.Siblings(u, d, buf[:0])
		for _, w := range sibs {
			if w == v {
				*out = rank
				return
			}
			rank++
		}
	}
}

// Record stores the outcome of tester's test of its neighbor testee and
// marks the pair tested. It panics if the nodes are not adjacent —
// syndromes only hold neighbor tests.
func (s *Syndrome) Record(tester, testee topo.NodeID, faulty bool) {
	r := s.rankOf(tester, testee)
	if r < 0 {
		panic(fmt.Sprintf("diagnose: %s does not test non-neighbor %s",
			s.t.Format(tester), s.t.Format(testee)))
	}
	i := int(tester)*s.deg + r
	s.tested.Add(i)
	if faulty {
		s.result.Add(i)
	} else {
		s.result.Remove(i)
	}
}

// Result returns tester's report about testee: faulty is meaningful
// only when tested is true. Non-adjacent pairs read as untested.
func (s *Syndrome) Result(tester, testee topo.NodeID) (faulty, tested bool) {
	r := s.rankOf(tester, testee)
	if r < 0 {
		return false, false
	}
	i := int(tester)*s.deg + r
	return s.result.Test(i), s.tested.Test(i)
}

// at reads the directed test at (tester, rank) without a rank search.
func (s *Syndrome) at(tester topo.NodeID, rank int) (faulty, tested bool) {
	i := int(tester)*s.deg + rank
	return s.result.Test(i), s.tested.Test(i)
}

// Tests counts the directed tests that completed.
func (s *Syndrome) Tests() int { return s.tested.Count() }

// CollectOptions configure a syndrome collection round.
type CollectOptions struct {
	// Seed drives AdversaryRandom's coin and is recorded nowhere else;
	// the same (set, Seed, Adversary) triple always yields the same
	// syndrome.
	Seed uint64
	// Adversary is the faulty testers' reporting policy ("" means
	// invert, the classical worst case).
	Adversary Adversary
}

// Collect runs one full PMC test round against ground truth: every
// node tests each of its neighbors over the direct link. Fault-free
// testers report the testee's true status; faulty testers report
// whatever the adversary policy dictates; tests across faulty links
// never complete and stay untested.
func Collect(set *faults.Set, opts CollectOptions) *Syndrome {
	t := set.Topology()
	syn := NewSyndrome(t)
	for u := 0; u < t.Nodes(); u++ {
		uid := topo.NodeID(u)
		uFaulty := set.NodeFaulty(uid)
		rank := 0
		for d := 0; d < t.Dim(); d++ {
			syn.scratch = t.Siblings(uid, d, syn.scratch[:0])
			for _, v := range syn.scratch {
				i := u*syn.deg + rank
				rank++
				if set.LinkFaulty(uid, v) {
					continue
				}
				truth := set.NodeFaulty(v)
				r := truth
				if uFaulty {
					r = opts.Adversary.report(opts.Seed, uid, v, truth)
				}
				syn.tested.Add(i)
				if r {
					syn.result.Add(i)
				}
			}
		}
	}
	return syn
}

// syndromeJSON is the wire form: topology shape for validation plus the
// two bitsets as base64 little-endian words. Compact enough that a Q10
// syndrome is ~2.5 KiB of JSON.
type syndromeJSON struct {
	Format string `json:"format"`
	Dim    int    `json:"dim"`
	Nodes  int    `json:"nodes"`
	Degree int    `json:"degree"`
	Radix  []int  `json:"radix"`
	Tests  int    `json:"tests"`
	Tested string `json:"tested_b64"`
	Result string `json:"result_b64"`
}

func bitsB64(s bitset.Set) string {
	buf := make([]byte, 8*len(s))
	for i, w := range s {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func bitsFromB64(enc string, words int) (bitset.Set, error) {
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("diagnose: bad bitset encoding: %w", err)
	}
	if len(raw) != 8*words {
		return nil, fmt.Errorf("diagnose: bitset holds %d bytes, want %d", len(raw), 8*words)
	}
	s := make(bitset.Set, words)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return s, nil
}

// MarshalJSON encodes the syndrome in the pmc-bitset-v1 wire format.
func (s *Syndrome) MarshalJSON() ([]byte, error) {
	radix := make([]int, s.t.Dim())
	for d := range radix {
		radix[d] = s.t.Radix(d)
	}
	return json.Marshal(syndromeJSON{
		Format: SyndromeFormat,
		Dim:    s.t.Dim(),
		Nodes:  s.t.Nodes(),
		Degree: s.deg,
		Radix:  radix,
		Tests:  s.Tests(),
		Tested: bitsB64(s.tested),
		Result: bitsB64(s.result),
	})
}

// ParseSyndrome decodes a pmc-bitset-v1 JSON syndrome and validates it
// against t: a syndrome collected on one topology must not be decoded
// on another.
func ParseSyndrome(data []byte, t topo.Topology) (*Syndrome, error) {
	var w syndromeJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("diagnose: bad syndrome JSON: %w", err)
	}
	if w.Format != SyndromeFormat {
		return nil, fmt.Errorf("diagnose: syndrome format %q, want %q", w.Format, SyndromeFormat)
	}
	if w.Dim != t.Dim() || w.Nodes != t.Nodes() || w.Degree != t.Degree() {
		return nil, fmt.Errorf("diagnose: syndrome shaped %d dims/%d nodes/%d degree, topology has %d/%d/%d",
			w.Dim, w.Nodes, w.Degree, t.Dim(), t.Nodes(), t.Degree())
	}
	if len(w.Radix) != t.Dim() {
		return nil, fmt.Errorf("diagnose: syndrome has %d radixes, want %d", len(w.Radix), t.Dim())
	}
	for d, m := range w.Radix {
		if m != t.Radix(d) {
			return nil, fmt.Errorf("diagnose: syndrome radix %d in dimension %d, topology has %d", m, d, t.Radix(d))
		}
	}
	syn := NewSyndrome(t)
	words := len(syn.tested)
	var err error
	if syn.tested, err = bitsFromB64(w.Tested, words); err != nil {
		return nil, err
	}
	if syn.result, err = bitsFromB64(w.Result, words); err != nil {
		return nil, err
	}
	if got := syn.Tests(); got != w.Tests {
		return nil, fmt.Errorf("diagnose: syndrome declares %d tests, bitset holds %d", w.Tests, got)
	}
	return syn, nil
}
