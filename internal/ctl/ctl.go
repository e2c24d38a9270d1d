// Package ctl is the decision service's controller contract and its
// algorithm registry. A Controller consumes one service-side Feedback and
// answers with the link's next rate in a single call, and snapshots and
// restores its complete dynamic state as a fixed number of bytes, so a
// store can hold millions of per-link states and rebuild any algorithm's
// controller on demand.
//
// The registry gives each served algorithm a stable one-byte ID (part of
// the softrated wire protocol), a name for CLI flags, a fixed state
// width, and a constructor producing its serving configuration; New is
// the only way to build a served controller. The simulator's §6.1
// comparison set is ratectl's Adapters, listed by netsim.Algorithms; its
// configurations differ from the served ones as PAPER.md records.
package ctl

import (
	"fmt"
	"sort"

	"softrate/internal/core"
)

// Feedback is one frame's worth of sender-side information, the superset
// every §6.1 algorithm needs: SoftRate reads Kind/RateIndex/BER,
// SampleRate reads Airtime/Delivered, RRAA reads Delivered, the SNR
// schemes read SNRdB. Fields an algorithm does not use are ignored — this
// mirrors reality, where the information exists at the receiver and each
// protocol chooses which part is fed back.
type Feedback struct {
	// Kind is the §3.2 outcome class (BER, collision, silent, postamble).
	Kind core.FeedbackKind
	// RateIndex is the rate the frame was sent at.
	RateIndex int
	// BER is the interference-free BER estimate (KindBER/KindCollision).
	BER float64
	// SNRdB is the receiver's SNR estimate; NaN when unknown (as a wire
	// record says it). Ignored for kinds without a received preamble.
	SNRdB float64
	// Airtime is the transmission's airtime in seconds; 0 means unknown
	// and lets the controller substitute the rate's nominal airtime.
	Airtime float64
	// Delivered reports whether the frame body arrived intact.
	Delivered bool
}

// Controller is a relocatable per-link rate controller: Apply for
// one-call feedback→rate, and a fixed-width binary snapshot of the
// dynamic state.
type Controller interface {
	// Apply consumes one service-side feedback and returns the rate index
	// for the link's next frame.
	Apply(fb Feedback) int
	// StateLen is the snapshot width in bytes — fixed per configuration,
	// never a function of the dynamic state.
	StateLen() int
	// EncodeState writes the dynamic state into dst[:StateLen()].
	EncodeState(dst []byte)
	// DecodeState overwrites the dynamic state from src[:StateLen()]. A
	// Decode → Apply → Encode cycle through any Controller built by the
	// same constructor is byte-identical in its decisions to a long-lived
	// instance.
	DecodeState(src []byte) error
}

// InPlace is the optional in-slab fast path: a Controller that can apply
// feedback directly to an encoded state buffer, with no DecodeState /
// EncodeState round trip. For wide-state algorithms (SampleRate's ~1.7 KB
// snapshot) the round trip dominates the serving cost, so stores probe
// for this interface and drive slab-backed state through it.
//
// The contract mirrors the codec one bit for bit: ApplyInPlace(state, fb)
// must leave state exactly as DecodeState(state) → Apply(fb) →
// EncodeState(state) would — including bytes EncodeState leaves untouched
// — and return the identical decision.
type InPlace interface {
	Controller
	// InPlaceOK reports whether this instance's configuration supports the
	// in-place path at all (a pure function of the configuration).
	InPlaceOK() bool
	// ApplyInPlace is Apply executed against the encoded state. ok=false
	// means the buffer failed validation (or the configuration cannot run
	// in place); state is then untouched and the caller should recover
	// through DecodeState.
	ApplyInPlace(state []byte, fb Feedback) (rate int, ok bool)
}

// Algo is a registered algorithm's stable one-byte ID. IDs are part of
// the softrated wire protocol — never renumber.
type Algo uint8

const (
	// AlgoDefault means "whatever the store is configured to default to";
	// it is what zero-valued ops and wire records with algorithm byte 0
	// carry.
	AlgoDefault Algo = 0
	// AlgoSoftRate is the paper's §3.3 algorithm (core.SoftRate).
	AlgoSoftRate Algo = 1
	// AlgoSampleRate is Bicket's SampleRate [4].
	AlgoSampleRate Algo = 2
	// AlgoRRAA is Robust Rate Adaptation [24].
	AlgoRRAA Algo = 3
	// AlgoSNR is the per-frame RBAR-like SNR protocol [10].
	AlgoSNR Algo = 4
	// AlgoCHARM is the averaged-SNR variant [13].
	AlgoCHARM Algo = 5
)

// Spec describes one registered algorithm.
type Spec struct {
	// ID is the wire-stable algorithm ID.
	ID Algo
	// Name is the CLI/registry name (lower-case, no spaces).
	Name string
	// StateLen is the fixed snapshot width of controllers built by New.
	StateLen int
	// New builds a controller in the canonical serving configuration.
	// Controllers from one Spec are interchangeable up to their encoded
	// state.
	New func() Controller
}

var (
	registry   = map[Algo]Spec{}
	byName     = map[string]Spec{}
	maxAlgoID  Algo
	registered []Spec
	// isRegistered mirrors registry's key set for the wire codec, which
	// validates an ID per record and wants neither a map probe nor a Spec
	// copy.
	isRegistered [256]bool
)

// register adds an algorithm to the registry. It panics on a duplicate ID
// or name, on AlgoDefault, or on a Spec whose constructor's StateLen
// disagrees with the declared one — registration is an init-time,
// single-goroutine affair.
func register(s Spec) {
	if s.ID == AlgoDefault {
		panic("ctl: cannot register AlgoDefault")
	}
	if _, dup := registry[s.ID]; dup {
		panic(fmt.Sprintf("ctl: duplicate algorithm ID %d", s.ID))
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("ctl: duplicate algorithm name %q", s.Name))
	}
	if got := s.New().StateLen(); got != s.StateLen {
		panic(fmt.Sprintf("ctl: %s declares state width %d but builds %d", s.Name, s.StateLen, got))
	}
	registry[s.ID] = s
	isRegistered[s.ID] = true
	byName[s.Name] = s
	if s.ID > maxAlgoID {
		maxAlgoID = s.ID
	}
	registered = append(registered, s)
	sort.Slice(registered, func(i, j int) bool { return registered[i].ID < registered[j].ID })
}

// Lookup resolves an algorithm ID. AlgoDefault is not a registered
// algorithm and resolves to false.
func Lookup(id Algo) (Spec, bool) {
	s, ok := registry[id]
	return s, ok
}

// Registered reports whether id is a registered algorithm; like Lookup it
// is false for AlgoDefault.
func Registered(id Algo) bool { return isRegistered[id] }

// ByName resolves a registry name (e.g. "softrate", "rraa").
func ByName(name string) (Spec, bool) {
	s, ok := byName[name]
	return s, ok
}

// Specs returns all registered algorithms in ID order.
func Specs() []Spec {
	out := make([]Spec, len(registered))
	copy(out, registered)
	return out
}

// MaxID returns the highest registered algorithm ID (for dense
// per-algorithm tables).
func MaxID() Algo { return maxAlgoID }

// New builds a fresh serving-configuration controller for a registered
// algorithm; it panics on an unknown ID (callers validate via Lookup).
func New(id Algo) Controller {
	s, ok := registry[id]
	if !ok {
		panic(fmt.Sprintf("ctl: unknown algorithm ID %d", id))
	}
	return s.New()
}

// Names returns the registered algorithm names in ID order, for CLI usage
// strings.
func Names() []string {
	out := make([]string, 0, len(registered))
	for _, s := range registered {
		out = append(out, s.Name)
	}
	return out
}
