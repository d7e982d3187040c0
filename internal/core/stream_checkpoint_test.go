package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestStreamCheckpointResumeBitIdentical: checkpointing a stream at any
// append boundary and resuming must leave every future Append/Snapshot
// bit-identical to the uninterrupted stream — in uncapped and
// sliding-window mode, and with a different worker count on the resume
// side.
func TestStreamCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	x := randWalk(rng, 700)
	for _, wcap := range []int{0, 300} {
		cfg := Config{LMin: 8, LMax: 32, TopK: 3, Discords: 2, WindowCap: wcap, Workers: 2}
		chunks := randomChunks(rng, len(x), 48)
		ref := streamChunks(t, cfg, x, chunks)
		refSnap, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		// Checkpoint after each of a few prefixes of the chunk sequence,
		// resume at a different worker count, replay the remaining chunks.
		for _, cut := range []int{1, len(chunks) / 2, len(chunks) - 1} {
			s := mustStreamer(t, cfg)
			off := 0
			for _, c := range chunks[:cut] {
				if err := s.Append(x[off : off+c]); err != nil {
					t.Fatal(err)
				}
				off += c
			}
			ck, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			ck = append([]byte(nil), ck...)

			rcfg := cfg
			rcfg.Workers = 5
			rs, err := ResumeStreamer(rcfg, ck)
			if err != nil {
				t.Fatalf("cap=%d cut=%d: resume: %v", wcap, cut, err)
			}
			if rs.Total() != s.Total() || rs.N() != s.N() {
				t.Fatalf("cap=%d cut=%d: resumed counters total=%d n=%d, want total=%d n=%d",
					wcap, cut, rs.Total(), rs.N(), s.Total(), s.N())
			}
			for _, c := range chunks[cut:] {
				if err := rs.Append(x[off : off+c]); err != nil {
					t.Fatal(err)
				}
				off += c
			}
			got, err := rs.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(refSnap)) {
				t.Fatalf("cap=%d cut=%d: resumed snapshot differs from uninterrupted stream", wcap, cut)
			}
		}
	}
}

func mustStreamer(t *testing.T, cfg Config) *Streamer {
	t.Helper()
	s, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamCheckpointRefusesV1Digest: a v1 stream frame carries winners
// repaired through FFT rows after evictions, and a v2 frame winners
// repaired by one direct row per offset; both differ in the last bits from
// this stream's run repairs, so both digests are refused.
func TestStreamCheckpointRefusesV1Digest(t *testing.T) {
	x := randWalk(rand.New(rand.NewSource(93)), 500)
	cfg := Config{LMin: 8, LMax: 24, TopK: 3, WindowCap: 200, Workers: 1}
	s := mustStreamer(t, cfg)
	if err := s.Append(x); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	p := &streamCkptPayload{}
	if err := decodeFrame(streamMagic, streamVersion, ck, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeStreamer(cfg, ck); err != nil {
		t.Fatalf("current frame: %v", err)
	}
	for _, version := range []string{"v1", "v2"} {
		p.CfgDigest = fmt.Sprintf("%s %s wcap=%d", version, cfgFields(s.Cfg()), cfg.WindowCap)
		old, err := encodeFrame(streamMagic, streamVersion, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeStreamer(cfg, old); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s-digest frame: want ErrBadCheckpoint, got %v", version, err)
		}
	}
}

// TestStreamCheckpointRejectsMismatch: frame and identity validation on
// the stream side.
func TestStreamCheckpointRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	x := randWalk(rng, 300)
	cfg := Config{LMin: 8, LMax: 24, TopK: 3, Workers: 1}
	s := mustStreamer(t, cfg)
	if err := s.Append(x); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	expectBad := func(tag string, c Config, blob []byte) {
		t.Helper()
		if _, err := ResumeStreamer(c, blob); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: want ErrBadCheckpoint, got %v", tag, err)
		}
	}
	otherCfg := cfg
	otherCfg.LMax = 20
	expectBad("different config", otherCfg, ck)

	capCfg := cfg
	capCfg.WindowCap = 100
	expectBad("different window cap", capCfg, ck)

	flipped := append([]byte(nil), ck...)
	flipped[len(flipped)-7] ^= 0x01
	expectBad("payload corruption", cfg, flipped)

	expectBad("truncated", cfg, ck[:20])

	// A batch checkpoint must not resume as a stream (disjoint magics).
	_, batchCk := captureAll(t, NewEngine(), x, Config{LMin: 8, LMax: 24, TopK: 3, Workers: 1})
	expectBad("batch blob as stream", cfg, batchCk[0])
}
