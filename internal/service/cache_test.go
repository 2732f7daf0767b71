package service

import (
	"encoding/json"
	"reflect"
	"testing"

	siwa "repro"
	"repro/internal/waves"
)

func TestKeyCanonicalization(t *testing.T) {
	src := "task t is begin null; end;"
	// Zero-value limits and their explicit defaults must share an entry.
	a := Key(src, siwa.Options{Enumerate: true})
	b := Key(src, siwa.Options{Enumerate: true, EnumerateLimit: 4096})
	if a != b {
		t.Error("EnumerateLimit 0 and 4096 produced different keys")
	}
	c := Key(src, siwa.Options{Exact: true})
	d := Key(src, siwa.Options{Exact: true, ExactOptions: waves.Options{MaxStates: 1 << 20}})
	if c != d {
		t.Error("MaxStates 0 and 1<<20 produced different keys")
	}
	// Traces never keys: the service pins it off.
	e := Key(src, siwa.Options{Exact: true, ExactOptions: waves.Options{Traces: true}})
	if c != e {
		t.Error("Traces flag leaked into the content address")
	}
	// Everything that changes the report must change the key.
	distinct := map[CacheKey]string{a: "enum", c: "exact"}
	for name, opt := range map[string]siwa.Options{
		"algo":      {Algorithm: siwa.AlgoRefined},
		"all":       {AllAlgorithms: true},
		"c4":        {Constraint4: true},
		"fifo":      {FIFO: true},
		"enumLimit": {Enumerate: true, EnumerateLimit: 7},
		"maxStates": {Exact: true, ExactOptions: waves.Options{MaxStates: 99}},
	} {
		k := Key(src, opt)
		if prev, dup := distinct[k]; dup {
			t.Errorf("options %q and %q collided", name, prev)
		}
		distinct[k] = name
	}
	if k := Key(src+" ", siwa.Options{}); k == Key(src, siwa.Options{}) {
		t.Error("source change did not change the key")
	}
}

// TestKeyIgnoresExecutionKnobs pins the canonicalization contract: options
// that change how an analysis runs — but never what it reports — must not
// fragment the result cache. A replica restarted with a different
// -parallelism, or a request that merely opted into tracing, still shares
// entries with everyone else analyzing the same source.
func TestKeyIgnoresExecutionKnobs(t *testing.T) {
	src := "task t is begin null; end;"
	base := Key(src, siwa.Options{AllAlgorithms: true})
	for name, opt := range map[string]siwa.Options{
		"parallelism": {AllAlgorithms: true, Parallelism: 8},
		"serial":      {AllAlgorithms: true, Parallelism: 1},
		"trace":       {AllAlgorithms: true, Trace: true},
		"limits":      {AllAlgorithms: true, Limits: siwa.Limits{MaxTasks: 7}},
		"degrade":     {AllAlgorithms: true, Degrade: true},
		"stageCache":  {AllAlgorithms: true, StageCache: siwa.NewStageCache(1 << 20)},
	} {
		if k := Key(src, opt); k != base {
			t.Errorf("execution knob %q leaked into the cache key", name)
		}
	}
}

// TestKeyCoversEveryOption walks every field of siwa.Options — and, inside
// it, waves.Options and any other nested struct — and sets one field at a
// time to a non-zero value. Each field must either change the printed key
// or come out of canonicalize zeroed. A field that does neither would let
// a request that sets it be served another request's cached report, so a
// new option fails here until Key prints it or canonicalize drops it.
func TestKeyCoversEveryOption(t *testing.T) {
	src := "task t is begin null; end;"
	base := Key(src, siwa.Options{})
	var walk func(path []int, typ reflect.Type, name string)
	walk = func(path []int, typ reflect.Type, name string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fpath := append(append([]int(nil), path...), i)
			fname := name + "." + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(fpath, f.Type, fname)
				continue
			}
			var opt siwa.Options
			reflect.ValueOf(&opt).Elem().FieldByIndex(fpath).Set(nonZero(t, f.Type, fname))
			if Key(src, opt) != base {
				continue // printed by Key
			}
			canon := canonicalize(opt)
			if !reflect.ValueOf(&canon).Elem().FieldByIndex(fpath).IsZero() {
				t.Errorf("%s is neither printed by Key nor zeroed by canonicalize", fname)
			}
		}
	}
	walk(nil, reflect.TypeOf(siwa.Options{}), "Options")
}

// nonZero returns a non-zero value of typ that differs from every
// default canonicalize substitutes.
func nonZero(t *testing.T, typ reflect.Type, name string) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				out[i] = reflect.Zero(typ.Out(i))
			}
			return out
		}))
	default:
		t.Fatalf("%s: no non-zero value for kind %s; extend nonZero", name, typ.Kind())
	}
	return v
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	k1, k2, k3 := Key("a", siwa.Options{}), Key("b", siwa.Options{}), Key("c", siwa.Options{})
	if _, ok := c.Get(k1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k1, CachedResult{Report: json.RawMessage(`1`)})
	c.Put(k2, CachedResult{Report: json.RawMessage(`2`)})
	if v, ok := c.Get(k1); !ok || string(v.Report) != "1" {
		t.Fatalf("k1: %q %v", v.Report, ok)
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.Put(k3, CachedResult{Report: json.RawMessage(`3`)})
	if _, ok := c.Get(k2); ok {
		t.Error("k2 survived eviction")
	}
	if _, ok := c.Get(k1); !ok {
		t.Error("k1 was evicted despite being most recently used")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hit/miss counts: %+v", st)
	}
	// Re-putting an existing key refreshes, not grows.
	c.Put(k1, CachedResult{Report: json.RawMessage(`11`)})
	if c.Len() != 2 {
		t.Errorf("len=%d after refresh", c.Len())
	}
	if v, _ := c.Get(k1); string(v.Report) != "11" {
		t.Errorf("refresh lost: %q", v.Report)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	k := Key("x", siwa.Options{})
	c.Put(k, CachedResult{Report: json.RawMessage(`1`)})
	if _, ok := c.Get(k); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}
