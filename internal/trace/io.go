package trace

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"softrate/internal/ratectl"
)

// Save writes a LinkTrace as gzip-compressed JSON.
func Save(w io.Writer, lt *LinkTrace) error {
	gz := gzip.NewWriter(w)
	if err := json.NewEncoder(gz).Encode(lt); err != nil {
		gz.Close()
		return fmt.Errorf("trace: encode: %w", err)
	}
	return gz.Close()
}

// Load reads a LinkTrace written by Save.
func Load(r io.Reader) (*LinkTrace, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: gzip: %w", err)
	}
	defer gz.Close()
	var lt LinkTrace
	if err := json.NewDecoder(gz).Decode(&lt); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	slots := 0
	if len(lt.Snapshots) > 0 {
		slots = len(lt.Snapshots[0])
	}
	if lt.Interval <= 0 || slots == 0 {
		return nil, fmt.Errorf("trace: malformed trace (interval %v, %d rates x %d slots)", lt.Interval, len(lt.Snapshots), slots)
	}
	for ri, snaps := range lt.Snapshots {
		if len(snaps) != slots {
			return nil, fmt.Errorf("trace: malformed trace (rate %d has %d slots, rate 0 %d)", ri, len(snaps), slots)
		}
	}
	return &lt, nil
}

// SaveFile writes a trace to path, reporting a failed close as a failed
// write.
func SaveFile(path string, lt *LinkTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, lt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TrainingSamples converts every snapshot of the trace into labelled
// (rate, SNR, delivered) samples for ratectl.TrainThresholds — the in-situ
// training the paper performs for its "SNR (trained)" baseline, which
// computes "the SNR-BER relationships ... from the traces used for
// evaluation" (§6.1).
func (lt *LinkTrace) TrainingSamples() []ratectl.TrainingSample {
	n := 0
	for _, snaps := range lt.Snapshots {
		n += len(snaps)
	}
	out := make([]ratectl.TrainingSample, 0, n) // undetected slots leave some spare
	for ri, snaps := range lt.Snapshots {
		for _, s := range snaps {
			if !s.Detected {
				continue
			}
			out = append(out, ratectl.TrainingSample{
				RateIndex: ri,
				SNRdB:     s.SNRdB,
				Delivered: s.Delivered,
			})
		}
	}
	return out
}
