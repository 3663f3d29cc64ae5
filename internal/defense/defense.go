// Package defense implements the residual *timing* side-channel the
// paper's §VI warns about: once the state-report JSON is padded, split or
// compressed (the report policies of session.Wire) and record lengths
// carry no signal, the check-pointed streaming pattern (playback pause
// at the question, a client report, and the prefetch-cancel stall on
// non-default choices) remains visible in packet timing.
package defense

import (
	"sort"
	"time"

	"repro/internal/tlsrec"
)

// TimingEvent is one suspected choice point recovered from timing alone.
type TimingEvent struct {
	// At is the time of the client record that triggered the detection.
	At time.Time
	// DownlinkGap is the longest server-silence within the horizon after
	// the event.
	DownlinkGap time.Duration
	// DownlinkBytes is the server volume delivered within the horizon
	// after the event. A non-default choice discards the prefetched
	// default branch and refetches the alternative, so its horizon
	// carries the discarded prefix *plus* the alternative segment —
	// measurably more than the default case.
	DownlinkBytes int
	// PairCount counts back-to-back client record pairs (sub-50ms apart)
	// in the window after the event, excluding the burst at the event
	// itself. When the viewer commits a non-default choice the browser
	// posts the type-2 report and the player fires the first alternative
	// chunk request in the same handler turn — two client records within
	// a round-trip of each other — whereas a default decision produces a
	// lone chunk request. The pair survives any length padding.
	PairCount int
}

// TimingAttack detects choice points from traffic timing and volume
// without using record lengths — the residual channel the paper's §VI
// warns about after the JSON is padded, split or compressed:
//
//   - At a choice question, playback is check-pointed: the player's
//     request pipeline goes quiet during segment playout, then a client
//     application record (the state report) appears after a long client
//     silence.
//   - On a non-default choice the prefetched default branch is discarded
//     and the alternative is fetched from scratch, so the downlink volume
//     in the window after the question carries the discarded prefix plus
//     the alternative segment — systematically more than the default
//     case, whatever the record lengths look like.
//
// The detector flags client records preceded by client-side quiet time
// of at least QuietBefore, then measures the downlink gap and volume in
// the following horizon; volumes above the learned split indicate
// non-default choices.
type TimingAttack struct {
	// QuietBefore is the minimum client-silence before a record to flag
	// it as a potential state report (default 3s: ordinary chunk requests
	// are rarely that far apart while streaming).
	QuietBefore time.Duration
	// GapSplit separates default from non-default downlink gaps (legacy
	// feature, kept for the prefetch ablation).
	GapSplit time.Duration
	// VolumeSplit separates default from non-default downlink volumes;
	// set by CalibrateVolume.
	VolumeSplit int
	// Feature selects the classification feature (default FeaturePairs,
	// which needs no calibration).
	Feature Feature
}

// Feature names the timing-attack classification feature.
type Feature int

// Features.
const (
	// FeaturePairs classifies on the decision-time client record pair —
	// the most robust feature, needing no calibration.
	FeaturePairs Feature = iota
	// FeatureVolume classifies on calibrated post-event downlink volume
	// (requires prefetch to create the redundant download).
	FeatureVolume
	// FeatureGap classifies on calibrated downlink-gap length.
	FeatureGap
)

// DetectionHorizon bounds the post-event window over which gap and
// volume are measured: the ten-second decision window plus restart slack.
const DetectionHorizon = 15 * time.Second

// DetectEvents flags suspected choice points in an observation's records.
func (a *TimingAttack) DetectEvents(client, server []tlsrec.Record) []TimingEvent {
	quiet := a.QuietBefore
	if quiet <= 0 {
		quiet = 3 * time.Second
	}
	// Flag every record that follows a client silence of at least quiet
	// — each is the potential start of a choice event.
	var starts []time.Time
	var lastClient time.Time
	for _, r := range client {
		if r.Type != tlsrec.ContentApplicationData {
			continue
		}
		if !lastClient.IsZero() && r.Time.Sub(lastClient) >= quiet {
			starts = append(starts, r.Time)
		}
		lastClient = r.Time
	}
	var events []TimingEvent
	for _, t := range starts {
		events = append(events, TimingEvent{
			At:            t,
			DownlinkGap:   downlinkGapAfter(server, t),
			DownlinkBytes: downlinkBytesAfter(server, t),
			PairCount:     pairCountAfter(client, t),
		})
	}
	return coalesceEvents(events, 5*time.Second)
}

// pairCountAfter counts near-simultaneous client record pairs in the
// window starting at t, the event's own burst included: the question's
// report and the prefetch request it triggers leave one event-loop turn
// back-to-back (pair one), and on a non-default choice the type-2
// report and refetch do the same at decision time (pair two). A default
// choice therefore shows one pair in its window and a non-default two —
// while a lone periodic telemetry upload, even one that opens the
// detection by breaking the pre-question quiet, pairs with nothing. The
// pair gap is tight: unrelated writes that merely land close —
// telemetry drifting across a chunk request — are tens of milliseconds
// apart.
func pairCountAfter(client []tlsrec.Record, t time.Time) int {
	const (
		pairGap    = 10 * time.Millisecond
		windowSpan = 12 * time.Second
	)
	var pairs int
	var prev time.Time
	for _, r := range client {
		if r.Type != tlsrec.ContentApplicationData {
			continue
		}
		d := r.Time.Sub(t)
		if d < 0 {
			continue
		}
		if d > windowSpan {
			break
		}
		if !prev.IsZero() && r.Time.Sub(prev) <= pairGap {
			pairs++
			prev = time.Time{} // a record belongs to at most one pair
			continue
		}
		prev = r.Time
	}
	return pairs
}

// coalesceEvents merges detections within window of each other (a type-1
// followed by a type-2 at the same question is one choice point; the
// longer gap and larger volume win).
func coalesceEvents(events []TimingEvent, window time.Duration) []TimingEvent {
	if len(events) == 0 {
		return events
	}
	out := []TimingEvent{events[0]}
	for _, e := range events[1:] {
		last := &out[len(out)-1]
		if e.At.Sub(last.At) <= window {
			if e.DownlinkGap > last.DownlinkGap {
				last.DownlinkGap = e.DownlinkGap
			}
			if e.DownlinkBytes > last.DownlinkBytes {
				last.DownlinkBytes = e.DownlinkBytes
			}
			if e.PairCount > last.PairCount {
				last.PairCount = e.PairCount
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// downlinkGapAfter returns the longest server-silence starting within the
// horizon after t. Trailing silence up to the horizon counts as a gap, so
// a downlink that goes quiet and stays quiet is measured rather than
// ignored.
func downlinkGapAfter(server []tlsrec.Record, t time.Time) time.Duration {
	// server records are time-ordered; find the first at/after t.
	i := sort.Search(len(server), func(i int) bool {
		return !server[i].Time.Before(t)
	})
	var longest time.Duration
	prev := t
	for ; i < len(server); i++ {
		st := server[i].Time
		if st.Sub(t) > DetectionHorizon {
			prev = t.Add(DetectionHorizon) // horizon reached with traffic beyond it
			break
		}
		if gap := st.Sub(prev); gap > longest {
			longest = gap
		}
		prev = st
	}
	// Trailing silence.
	if tail := t.Add(DetectionHorizon).Sub(prev); tail > longest {
		longest = tail
	}
	return longest
}

// downlinkBytesAfter totals the server record payload delivered within
// the horizon after t.
func downlinkBytesAfter(server []tlsrec.Record, t time.Time) int {
	i := sort.Search(len(server), func(i int) bool {
		return !server[i].Time.Before(t)
	})
	var total int
	for ; i < len(server); i++ {
		if server[i].Time.Sub(t) > DetectionHorizon {
			break
		}
		total += server[i].Length
	}
	return total
}

// Calibrate learns the gap split point from labeled examples: gaps for
// default and non-default choices. It sets GapSplit to the midpoint of
// the class means and returns it.
func (a *TimingAttack) Calibrate(defaultGaps, nonDefaultGaps []time.Duration) time.Duration {
	mean := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var s float64
		for _, d := range ds {
			s += float64(d)
		}
		return s / float64(len(ds))
	}
	split := (mean(defaultGaps) + mean(nonDefaultGaps)) / 2
	a.GapSplit = time.Duration(split)
	return a.GapSplit
}

// CalibrateVolume learns the volume split from labeled horizon volumes
// for default and non-default choices, setting VolumeSplit to the
// midpoint of the class means.
func (a *TimingAttack) CalibrateVolume(defaultVols, nonDefaultVols []int) int {
	mean := func(vs []int) float64 {
		if len(vs) == 0 {
			return 0
		}
		var s float64
		for _, v := range vs {
			s += float64(v)
		}
		return s / float64(len(vs))
	}
	a.VolumeSplit = int((mean(defaultVols) + mean(nonDefaultVols)) / 2)
	return a.VolumeSplit
}

// ClassifyEvents converts detected events into a decision vector (true =
// default) using the configured feature. The default pair feature needs
// no calibration; volume and gap fall back to all-default when their
// split was never calibrated.
func (a *TimingAttack) ClassifyEvents(events []TimingEvent) []bool {
	out := make([]bool, len(events))
	for i, e := range events {
		switch a.Feature {
		case FeatureVolume:
			out[i] = a.VolumeSplit == 0 || e.DownlinkBytes <= a.VolumeSplit
		case FeatureGap:
			out[i] = a.GapSplit == 0 || e.DownlinkGap <= a.GapSplit
		default: // FeaturePairs
			// One pair is the question's own report+prefetch burst; a
			// second marks the type-2+refetch at a non-default decision.
			out[i] = e.PairCount < 2
		}
	}
	return out
}

// MatchEvents aligns detected events to ground-truth question times: for
// each truth time the nearest event within tolerance is matched (greedy,
// in time order). It returns the matched event index per truth entry
// (-1 = missed).
func MatchEvents(events []TimingEvent, truthTimes []time.Time, tolerance time.Duration) []int {
	out := make([]int, len(truthTimes))
	used := make([]bool, len(events))
	for i, tt := range truthTimes {
		out[i] = -1
		bestD := tolerance
		for j, e := range events {
			if used[j] {
				continue
			}
			d := e.At.Sub(tt)
			if d < 0 {
				d = -d
			}
			if d <= bestD {
				out[i], bestD = j, d
			}
		}
		if out[i] >= 0 {
			used[out[i]] = true
		}
	}
	return out
}
