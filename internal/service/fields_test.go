package service

// Tests for request fields at the edges of what the API accepts: count
// fields far beyond what a series can hold, and fields of retired plan
// knobs that old clients may still send.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	valmod "github.com/seriesmining/valmod"
)

// TestHugeCountFieldsFinish: topk, discords and p at math.MaxInt must
// not size any preallocation — one sized by the field needs terabytes and
// kills the whole process with a fatal out-of-memory error. With every
// capacity bounded by the candidate or anchor count the jobs finish done,
// and the server outlives them:
//
//   - topk and discords at math.MaxInt return the bytes of the same
//     request with both set to the series length n;
//   - p at math.MaxInt is refused with 400 naming the field (the
//     partial-profile store holds s·min(p, s) entries, s² at any p past
//     the series), and p at valmod.MaxP returns the default-p run's best
//     pair.
func TestHugeCountFieldsFinish(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	client := ts.Client()

	values := testSeries(600)
	const huge = math.MaxInt
	run := func(req JobRequest) json.RawMessage {
		t.Helper()
		resp := postJSON(t, client, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		final := waitHTTPTerminal(t, client, ts.URL, decode[rawStatus](t, resp).ID)
		if final.State != StateDone {
			t.Fatalf("state=%s err=%q", final.State, final.Error)
		}
		return final.Result
	}
	base := JobRequest{Values: values, LMin: 16, LMax: 32, Workers: 1}

	hugeCounts, nCounts := base, base
	hugeCounts.TopK, hugeCounts.Discords = huge, huge
	nCounts.TopK, nCounts.Discords = len(values), len(values)
	if got, want := run(hugeCounts), run(nCounts); !bytes.Equal(got, want) {
		t.Fatalf("topk/discords=MaxInt result differs from topk/discords=n\n got %s\nwant %s", got, want)
	}

	hugeP := base
	hugeP.P = huge
	resp := postJSON(t, client, ts.URL+"/v1/jobs", hugeP)
	if body := decode[apiError](t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "Options.P") {
		t.Fatalf("p=MaxInt: status %d, error %q; want 400 naming Options.P", resp.StatusCode, body.Error)
	}
	maxP := base
	maxP.P = valmod.MaxP
	var got, want Result
	if err := json.Unmarshal(run(maxP), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(run(base), &want); err != nil {
		t.Fatal(err)
	}
	if got.Best == nil || want.Best == nil {
		t.Fatalf("missing best pair: p=MaxP %v, default %v", got.Best, want.Best)
	}
	g, w := *got.Best, *want.Best
	if g.A != w.A || g.B != w.B || g.Length != w.Length || math.Abs(g.NormDistance-w.NormDistance) > 1e-9*(1+w.NormDistance) {
		t.Fatalf("p=MaxP best pair %+v, default p %+v", g, w)
	}

	if resp, err := client.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server not healthy after the jobs: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestRetiredRequestFieldsIgnored: a body that still carries the fields of
// retired plan knobs (length_skip, length_stride, refine_radius, strict,
// carry32, disable_incremental) is accepted, runs the default plan, and
// shares its cache entry with the same body without those fields.
func TestRetiredRequestFieldsIgnored(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	client := ts.Client()

	values := testSeries(700)
	plain := map[string]any{"values": values, "lmin": 16, "lmax": 35, "topk": 3, "discords": 2, "workers": 1}
	retired := map[string]any{
		"length_skip": true, "length_stride": 4, "refine_radius": 1,
		"strict": true, "carry32": true, "disable_incremental": true,
	}
	old := map[string]any{}
	for k, v := range plain {
		old[k] = v
	}
	for k, v := range retired {
		old[k] = v
	}

	// Same key: both bodies decode to the same request.
	key := func(body map[string]any) cacheKey {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var req JobRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		return resultKey(hashSeries(req.Values), req.LMin, req.LMax, req.options())
	}
	if key(old) != key(plain) {
		t.Fatal("retired fields changed the cache key")
	}

	// Accepted, and the default plan runs: byte-identical to a direct
	// Discover with the remaining options.
	resp := postJSON(t, client, ts.URL+"/v1/jobs", old)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with retired fields: status %d", resp.StatusCode)
	}
	final := waitHTTPTerminal(t, client, ts.URL, decode[rawStatus](t, resp).ID)
	if final.State != StateDone {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	direct, err := valmod.Discover(values, 16, 35, valmod.Options{TopK: 3, Discords: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(ResultOf(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Result, wantBytes) {
		t.Fatalf("result differs from the default plan\n got %s\nwant %s", final.Result, wantBytes)
	}
	if plan := direct.Plan; plan.IncrementalLengths != 35-16+1 || plan.HeadSeeds != 35-16+1 {
		t.Fatalf("default discords plan stats %+v", plan)
	}

	// Same cache entry: the plain body is answered from the cache.
	st := decode[rawStatus](t, postJSON(t, client, ts.URL+"/v1/jobs", plain))
	if st.State != StateDone || !st.CacheHit || !bytes.Equal(st.Result, final.Result) {
		t.Fatalf("plain body: state=%s cache_hit=%v, want a done cache hit with the same bytes", st.State, st.CacheHit)
	}
}
