package bench

import (
	"bytes"
	"testing"
)

func tinyServeConfig() ServeBenchConfig {
	c := DefaultServeConfig()
	c.N = 512
	c.ShardRows = 64
	c.Clients = []int{1, 4}
	c.Requests = 6
	c.Repeats = 1
	return c
}

func TestRunServeShapeAndChecksums(t *testing.T) {
	s, err := RunServe(tinyServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != ServeSchema {
		t.Fatalf("schema %q", s.Schema)
	}
	if len(s.Results) != 4 { // 2 client counts x {batched, singleton}
		t.Fatalf("got %d rows", len(s.Results))
	}
	for i := 0; i+1 < len(s.Results); i += 2 {
		a, b := s.Results[i], s.Results[i+1]
		if a.Coalesce != "batched" || b.Coalesce != "singleton" {
			t.Fatalf("row order: %q then %q", a.Coalesce, b.Coalesce)
		}
		if a.Checksum != b.Checksum || a.Rows != b.Rows {
			t.Fatalf("clients=%d: batched/singleton fingerprints differ: %+v vs %+v", a.Clients, a, b)
		}
		if a.Checksum == "0000000000000000" {
			t.Fatalf("clients=%d: zero checksum", a.Clients)
		}
		if a.P50Ns <= 0 || a.ThroughputRPS <= 0 {
			t.Fatalf("clients=%d: missing timing fields: %+v", a.Clients, a)
		}
	}
	if len(s.Dispatch) != 3 {
		t.Fatalf("got %d dispatch rows, want 3", len(s.Dispatch))
	}
	for i, d := range s.Dispatch {
		if d.N != 512<<(2*i) {
			t.Fatalf("dispatch row %d: n=%d, want %d", i, d.N, 512<<(2*i))
		}
		if want := (d.N + 63) / 64; d.ShardRows != 64 || d.Dispatches != want || d.MedianNs <= 0 {
			t.Fatalf("dispatch row %+v: want shard_rows 64, %d dispatches, a positive median", d, want)
		}
	}
	// Singleton rows must actually have run unbatched.
	for _, r := range s.Results {
		if r.Coalesce == "singleton" && r.BatchMean > 1 {
			t.Fatalf("singleton row batched: %+v", r)
		}
	}
}

func TestServeSuiteCanonicalDeterminism(t *testing.T) {
	cfg := tinyServeConfig()
	run := func() []byte {
		s, err := RunServe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := CanonicalServe(s).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical serve suites differ:\n%s\n----\n%s", a, b)
	}
}

func TestServeBenchConfigValidate(t *testing.T) {
	for _, mut := range []func(*ServeBenchConfig){
		func(c *ServeBenchConfig) { c.N = 0 },
		func(c *ServeBenchConfig) { c.Clients = nil },
		func(c *ServeBenchConfig) { c.Clients = []int{0} },
		func(c *ServeBenchConfig) { c.Requests = 0 },
		func(c *ServeBenchConfig) { c.Repeats = 0 },
	} {
		c := tinyServeConfig()
		mut(&c)
		if _, err := RunServe(c); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
}
