package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay writes its input as wal.log and opens it. Every input
// must fail to open, or give a WAL whose replayed state survives a close
// and a reopen deep-equal (the torn-tail truncation is idempotent) and
// whose log takes one more record that the next reopen replays after it.
// It must never panic. The seeds are a real log from a short Manager run
// (an upload, a finished discovery, a stream job with appends), torn
// prefixes of it, and the same log under a header version this binary
// does not know.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	wal, err := OpenWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	m := NewManager(Config{MaxConcurrent: 1, Store: wal})
	info, err := m.UploadSeries(testSeries(240))
	if err != nil {
		f.Fatal(err)
	}
	job, err := m.Submit(JobRequest{SeriesID: info.ID, LMin: 16, LMax: 18, TopK: 1, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	if st := waitTerminal(f, job); st.State != StateDone {
		f.Fatalf("seed job: state=%s err=%q", st.State, st.Error)
	}
	stream, err := m.Submit(JobRequest{Kind: KindStream, LMin: 8, LMax: 10, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range [][]float64{testSeries(20), testSeries(7)} {
		if err := stream.AppendStream(c); err != nil {
			f.Fatal(err)
		}
	}
	m.Shutdown()
	if err := wal.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	last := bytes.LastIndexByte(log[:len(log)-1], '\n') + 1
	for _, cut := range []int{len(log) - 1, last + (len(log)-last)/2, last, len(log) / 2, 5} {
		f.Add(log[:cut])
	}
	hdr := bytes.IndexByte(log, '\n') + 1
	f.Add(append([]byte(`{"t":"hdr","v":2}`+"\n"), log[hdr:]...))
	// A live job whose ID names a path outside ckpt/: its checkpoint
	// would be read from that path, here the log itself.
	f.Add([]byte(`{"t":"hdr","v":1}` + "\n" + `{"t":"submit","id":"../wal.log","req":{"lmin":8,"lmax":9}}` + "\n"))

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o666); err != nil {
			t.Fatal(err)
		}
		w1, err := OpenWAL(dir)
		if err != nil {
			return
		}
		first := w1.Recovered()
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("reopen of a log that opened: %v", err)
		}
		if !reflect.DeepEqual(w2.Recovered(), first) {
			t.Fatalf("reopen replayed %+v, first open %+v", w2.Recovered(), first)
		}
		added := RecoveredSeries{ID: "s_fuzz", Values: []float64{1.5, -2, 0.25}}
		if err := w2.SaveSeries(added.ID, added.Values); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		w3, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("reopen after a saved record: %v", err)
		}
		defer w3.Close()
		want := &RecoveredState{Series: append(append([]RecoveredSeries(nil), first.Series...), added), Jobs: first.Jobs}
		if got := w3.Recovered(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after a saved record replayed %+v, want %+v", got, want)
		}
	})
}
