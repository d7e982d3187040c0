// Package valmap implements VALMAP, the Variable-Length Matrix Profile the
// demo paper introduces: a triple ⟨MPn, IP, LP⟩ of length-normalized
// distances, best-match offsets and best-match lengths, plus the per-length
// update checkpoints the demo GUI exposes through its slider (Figures 1
// right and 5).
package valmap

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrBadRange is returned when the length range is invalid.
var ErrBadRange = errors.New("valmap: invalid length range")

// Update is one VALMAP cell improvement: at length L, subsequence I's best
// length-normalized match became (J, NormDist).
type Update struct {
	I        int     `json:"i"`
	J        int     `json:"j"`
	L        int     `json:"l"`
	NormDist float64 `json:"nd"`
}

// Checkpoint groups the updates applied at one subsequence length; the demo
// GUI's slider walks these (demo §3: "the checkpoints of the VALMAP, namely
// all the updates occurred from the length ℓmin till the desired length").
type Checkpoint struct {
	L       int      `json:"l"`
	Updates []Update `json:"updates"`
}

// VALMAP is the meta data series. MPn, IP and LP all have |D| − ℓmin + 1
// entries, one per subsequence offset at the minimum length.
type VALMAP struct {
	LMin int `json:"lmin"`
	LMax int `json:"lmax"`
	// MPn[i] is the smallest length-normalized distance d·√(1/ℓ) seen for
	// subsequence offset i across all lengths processed so far.
	MPn []float64 `json:"mpn"`
	// IP[i] is the offset of the best match (-1 when none).
	IP []int `json:"ip"`
	// LP[i] is the length at which the best match was found (0 when none).
	LP []int `json:"lp"`
	// Checkpoints records, per length with at least one improvement, the
	// updates applied. Replaying them over the initial state reconstructs
	// the VALMAP at any intermediate length.
	Checkpoints []Checkpoint `json:"checkpoints"`

	// initMPn/initIP/initLP snapshot the state right after initialization
	// (the flat length-ℓmin profile) so StateAt can replay checkpoints.
	initMPn []float64
	initIP  []int
	initLP  []int

	current *Checkpoint // checkpoint being accumulated, if any
}

// New returns a VALMAP for a series with s = |D|−ℓmin+1 subsequence slots,
// initialized to +Inf / -1 / 0.
func New(lmin, lmax, s int) (*VALMAP, error) {
	if lmin < 2 || lmax < lmin || s < 1 {
		return nil, fmt.Errorf("%w: lmin=%d lmax=%d s=%d", ErrBadRange, lmin, lmax, s)
	}
	v := &VALMAP{
		LMin: lmin,
		LMax: lmax,
		MPn:  make([]float64, s),
		IP:   make([]int, s),
		LP:   make([]int, s),
	}
	for i := range v.MPn {
		v.MPn[i] = math.Inf(1)
		v.IP[i] = -1
	}
	return v, nil
}

// Len returns the number of subsequence slots.
func (v *VALMAP) Len() int { return len(v.MPn) }

// InitFromProfile seeds slot i with the length-ℓmin matrix profile value
// (already length-normalized by the caller). Call Seal once seeding is done
// so the snapshot used by StateAt is frozen.
func (v *VALMAP) InitFromProfile(i int, normDist float64, j, l int) {
	v.MPn[i] = normDist
	v.IP[i] = j
	v.LP[i] = l
}

// Seal freezes the initial state; subsequent improvements must go through
// Apply and are recorded as checkpoints.
func (v *VALMAP) Seal() {
	v.initMPn = append([]float64(nil), v.MPn...)
	v.initIP = append([]int(nil), v.IP...)
	v.initLP = append([]int(nil), v.LP...)
}

// Sealed reports whether Seal has been called.
func (v *VALMAP) Sealed() bool { return v.initMPn != nil }

// BeginLength opens a checkpoint for updates at length l. Lengths must be
// presented in increasing order.
func (v *VALMAP) BeginLength(l int) {
	v.current = &Checkpoint{L: l}
}

// Apply improves slot i to (normDist, j, l) when normDist is strictly
// smaller than the current value, returning whether an update happened.
// The update is recorded in the open checkpoint.
func (v *VALMAP) Apply(i int, normDist float64, j, l int) bool {
	if normDist >= v.MPn[i] {
		return false
	}
	v.MPn[i] = normDist
	v.IP[i] = j
	v.LP[i] = l
	if v.current != nil {
		v.current.Updates = append(v.current.Updates, Update{I: i, J: j, L: l, NormDist: normDist})
	}
	return true
}

// EndLength closes the current checkpoint, keeping it only when it recorded
// at least one update. It reports how many updates were applied.
func (v *VALMAP) EndLength() int {
	if v.current == nil {
		return 0
	}
	n := len(v.current.Updates)
	if n > 0 {
		v.Checkpoints = append(v.Checkpoints, *v.current)
	}
	v.current = nil
	return n
}

// StateAt reconstructs the VALMAP as it looked after processing length l
// (inclusive), by replaying checkpoints over the sealed initial state. This
// is the backend of the demo GUI's slider.
func (v *VALMAP) StateAt(l int) (mpn []float64, ip, lp []int, err error) {
	if !v.Sealed() {
		return nil, nil, nil, errors.New("valmap: StateAt before Seal")
	}
	if l < v.LMin || l > v.LMax {
		return nil, nil, nil, fmt.Errorf("%w: length %d outside [%d,%d]", ErrBadRange, l, v.LMin, v.LMax)
	}
	mpn = append([]float64(nil), v.initMPn...)
	ip = append([]int(nil), v.initIP...)
	lp = append([]int(nil), v.initLP...)
	for _, cp := range v.Checkpoints {
		if cp.L > l {
			break
		}
		for _, u := range cp.Updates {
			mpn[u.I] = u.NormDist
			ip[u.I] = u.J
			lp[u.I] = u.L
		}
	}
	return mpn, ip, lp, nil
}

// Min returns the global best cell: the smallest length-normalized distance,
// its slot, match offset and length. Returns i = -1 on an empty VALMAP.
func (v *VALMAP) Min() (i int, normDist float64, j, l int) {
	i, normDist, j, l = -1, math.Inf(1), -1, 0
	for k, d := range v.MPn {
		if d < normDist {
			i, normDist, j, l = k, d, v.IP[k], v.LP[k]
		}
	}
	return i, normDist, j, l
}

// jsonVALMAP mirrors VALMAP for serialization, adding the sealed snapshot.
type jsonVALMAP struct {
	LMin        int          `json:"lmin"`
	LMax        int          `json:"lmax"`
	MPn         []float64    `json:"mpn"`
	IP          []int        `json:"ip"`
	LP          []int        `json:"lp"`
	Checkpoints []Checkpoint `json:"checkpoints"`
	InitMPn     []float64    `json:"init_mpn,omitempty"`
	InitIP      []int        `json:"init_ip,omitempty"`
	InitLP      []int        `json:"init_lp,omitempty"`
}

// WriteJSON serializes the VALMAP, including the sealed snapshot so a loaded
// VALMAP still supports StateAt. Infinities are encoded as nulls.
func (v *VALMAP) WriteJSON(w io.Writer) error {
	// JSON cannot carry +Inf; swap for a sentinel.
	enc := jsonVALMAP{
		LMin: v.LMin, LMax: v.LMax,
		MPn: encodeInf(v.MPn), IP: v.IP, LP: v.LP,
		Checkpoints: v.Checkpoints,
		InitMPn:     encodeInf(v.initMPn), InitIP: v.initIP, InitLP: v.initLP,
	}
	return json.NewEncoder(w).Encode(enc)
}

// ReadJSON deserializes a VALMAP written by WriteJSON.
func ReadJSON(r io.Reader) (*VALMAP, error) {
	var dec jsonVALMAP
	if err := json.NewDecoder(r).Decode(&dec); err != nil {
		return nil, fmt.Errorf("valmap: %w", err)
	}
	if dec.LMin < 2 || dec.LMax < dec.LMin || len(dec.MPn) == 0 ||
		len(dec.MPn) != len(dec.IP) || len(dec.MPn) != len(dec.LP) {
		return nil, fmt.Errorf("%w: malformed VALMAP document", ErrBadRange)
	}
	v := &VALMAP{
		LMin: dec.LMin, LMax: dec.LMax,
		MPn: decodeInf(dec.MPn), IP: dec.IP, LP: dec.LP,
		Checkpoints: dec.Checkpoints,
		initMPn:     decodeInf(dec.InitMPn), initIP: dec.InitIP, initLP: dec.InitLP,
	}
	return v, nil
}

// infSentinel stands in for +Inf inside JSON documents.
const infSentinel = math.MaxFloat64

func encodeInf(x []float64) []float64 {
	if x == nil {
		return nil
	}
	out := make([]float64, len(x))
	for i, v := range x {
		if math.IsInf(v, 1) {
			out[i] = infSentinel
		} else {
			out[i] = v
		}
	}
	return out
}

func decodeInf(x []float64) []float64 {
	if x == nil {
		return nil
	}
	out := make([]float64, len(x))
	for i, v := range x {
		if v == infSentinel {
			out[i] = math.Inf(1)
		} else {
			out[i] = v
		}
	}
	return out
}
