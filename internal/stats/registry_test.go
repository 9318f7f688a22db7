package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// mapRegistry is the string-keyed registry the handle table replaced: a
// key exists once it has been added to, even by 0. It is the reference
// the differential test holds Registry to.
type mapRegistry map[string]uint64

func (m mapRegistry) add(name string, n uint64) { m[name] += n }

func (m mapRegistry) merge(other mapRegistry) {
	for n, v := range other {
		m.add(n, v)
	}
}

func (m mapRegistry) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (m mapRegistry) snapshot() []CounterValue {
	out := make([]CounterValue, 0, len(m))
	for _, n := range m.names() {
		out = append(out, CounterValue{Name: n, Value: m[n]})
	}
	return out
}

// diffCounters are registered in an order unlike their sorted order, so
// a snapshot that followed handle order would diverge.
var diffCounters = func() []Counter {
	var cs []Counter
	for _, n := range []string{"diff_m", "diff_b", "diff_z", "diff_a", "diff_q", "diff_c2", "diff_c10", "diff_k"} {
		cs = append(cs, NewCounter(n))
	}
	return cs
}()

// TestRegistryMatchesMapSemantics drives Registry and mapRegistry through
// the same seeded sequences of Add (n = 0 included), Inc and Merge and
// compares Get, Names and Snapshot after every step.
func TestRegistryMatchesMapSemantics(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		regs := [2]*Registry{{}, {}}
		refs := [2]mapRegistry{{}, {}}
		for step := 0; step < 200; step++ {
			i := rng.Intn(2)
			c := diffCounters[rng.Intn(len(diffCounters))]
			var op string
			switch k := rng.Intn(10); {
			case k < 4:
				n := uint64(rng.Intn(1000))
				if k == 0 {
					n = 0
				}
				op = fmt.Sprintf("Add(%s, %d)", c.Name(), n)
				regs[i].Add(c, n)
				refs[i].add(c.Name(), n)
			case k < 8:
				op = fmt.Sprintf("Inc(%s)", c.Name())
				regs[i].Inc(c)
				refs[i].add(c.Name(), 1)
			case k < 9:
				op = fmt.Sprintf("Merge into %d", i)
				regs[i].Merge(regs[1-i])
				refs[i].merge(refs[1-i])
			default:
				op = fmt.Sprintf("reset %d", i)
				regs[i], refs[i] = &Registry{}, mapRegistry{}
			}
			for j := range regs {
				if err := sameRegistry(regs[j], refs[j]); err != "" {
					t.Fatalf("seed %d step %d (%s): registry %d: %s", seed, step, op, j, err)
				}
			}
		}
	}
}

func sameRegistry(r *Registry, ref mapRegistry) string {
	for _, c := range diffCounters {
		if got, want := r.Get(c.Name()), ref[c.Name()]; got != want {
			return fmt.Sprintf("Get(%s) = %d, want %d", c.Name(), got, want)
		}
	}
	if got := r.Get("not_registered"); got != 0 {
		return fmt.Sprintf("Get of an unregistered name = %d", got)
	}
	if got, want := r.Names(), ref.names(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Names = %v, want %v", got, want)
	}
	if got, want := r.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Snapshot = %v, want %v", got, want)
	}
	return ""
}

func TestAddZeroMakesCounterPresent(t *testing.T) {
	var r Registry
	r.Add(ctrZeta, 0)
	if got := r.Snapshot(); len(got) != 1 || got[0] != (CounterValue{"zeta", 0}) {
		t.Errorf("Snapshot = %v, want [{zeta 0}]", got)
	}
}

// mustPanic runs f and returns its panic message, failing the test when f
// returns normally or the message lacks want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one mentioning %q", want)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one mentioning %q", msg, want)
		}
	}()
	f()
}

func TestNewCounterRejectsNonSnakeNames(t *testing.T) {
	for _, name := range []string{"CacheHits", "cacheHits", "hit-rate", "hit rate", "9lives", "_hits", ""} {
		var tab counterTable
		mustPanic(t, "not lowercase_snake", func() { tab.register(name) })
	}
	var tab counterTable
	for _, name := range []string{"a", "cache_hits", "det_timeout_bucket_8", "x_"} {
		tab.register(name)
	}
}

func TestNewCounterRejectsDuplicates(t *testing.T) {
	var tab counterTable
	tab.register("shared_counter")
	mustPanic(t, "registered twice", func() { tab.register("shared_counter") })
	// The program's own table rejects a name this binary already owns.
	mustPanic(t, "registered twice", func() { NewCounter("alpha") })
}

func TestNewCounterRejectsFullTable(t *testing.T) {
	var tab counterTable
	for i := 0; i < MaxCounters; i++ {
		if c := tab.register(fmt.Sprintf("c_%d", i)); int(c) != i {
			t.Fatalf("handle %d for the %d-th name", c, i)
		}
	}
	mustPanic(t, "table is full", func() { tab.register("one_more") })
}
