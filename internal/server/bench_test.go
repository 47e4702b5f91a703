package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetsched/internal/stats"
)

// BenchmarkServerScheduleWarm measures the warm batch serving path end to
// end over HTTP: admission → in-batch dedup → memory-LRU hit → one
// simulator pass. The first request computes the three kernel variants;
// every timed iteration is answered entirely from the in-memory tier, so
// this is the steady-state latency a loaded daemon serves duplicate-heavy
// traffic at. p50/p99/p99.9 come from the same streaming reservoir the
// daemon publishes on /metrics.
func BenchmarkServerScheduleWarm(b *testing.B) {
	s, err := New(testSystem(b), quietConfig(Config{Workers: 4, QueueDepth: 64}))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"jobs": [
		{"kernel": "tblook"}, {"kernel": "a2time"}, {"kernel": "tblook"},
		{"kernel": "aifftr", "data_seed": 3}, {"kernel": "tblook"}
	]}`
	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/schedule/batch", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		b.Fatalf("warmup: status %d", code)
	}

	lat, err := stats.NewReservoir(4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if code := post(); code != http.StatusOK {
			b.Fatalf("iteration %d: status %d", i, code)
		}
		lat.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	b.StopTimer()
	if qs, err := lat.Quantiles(0.50, 0.99, 0.999); err == nil {
		b.ReportMetric(qs[0], "p50-ms")
		b.ReportMetric(qs[1], "p99-ms")
		b.ReportMetric(qs[2], "p999-ms")
	}
	st := s.tier.Stats()
	if st.Computed > 3 {
		b.Fatalf("warm path recomputed characterizations: %+v", st)
	}
}

// BenchmarkServerScheduleBatchCold measures the batch path when every
// request characterizes: 10 rows, 8 naming one warm variant and 2 naming
// variants never requested before (aifirf and tblook at a fresh data
// seed), so each request computes two variants and answers the rest from
// the memory tier. The two computes are the request's critical path.
func BenchmarkServerScheduleBatchCold(b *testing.B) {
	s, err := New(testSystem(b), quietConfig(Config{Workers: 4, QueueDepth: 64}))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(op int) {
		cold := func(c int) string {
			return fmt.Sprintf(`{"kernel": %q, "data_seed": %d}`, []string{"aifirf", "tblook"}[c], 2+2*op+c)
		}
		hot := `{"kernel": "a2time"}`
		rows := []string{hot, hot, hot, hot, cold(0), hot, hot, hot, hot, cold(1)}
		resp, err := http.Post(ts.URL+"/v1/schedule/batch", "application/json",
			strings.NewReader(`{"jobs": [`+strings.Join(rows, ",")+`]}`))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("op %d: status %d", op, resp.StatusCode)
		}
	}
	post(0) // warm the hot variant and the pools

	lat, err := stats.NewReservoir(4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		post(i + 1)
		lat.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	b.StopTimer()
	if qs, err := lat.Quantiles(0.50, 0.99); err == nil {
		b.ReportMetric(qs[0], "p50-ms")
		b.ReportMetric(qs[1], "p99-ms")
	}
	if st := s.tier.Stats(); st.Computed != uint64(2*(b.N+1)+1) {
		b.Fatalf("computed %d variants over %d requests, want 2 per request plus the hot one", st.Computed, b.N+1)
	}
}
