package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ndpcr/internal/metrics"
)

// TestWalkLines is the table over the one recovery ladder every restart-line
// walk (Cluster.Recover, the gateway's /resume and /restore) runs.
func TestWalkLines(t *testing.T) {
	lineErr := map[uint64]error{}
	for _, line := range []uint64{3, 4, 5, 7} {
		lineErr[line] = fmt.Errorf("line %d unreadable", line)
	}
	invDown := fmt.Errorf("%w: store down", ErrLevelUnavailable)
	cases := []struct {
		name      string
		pinned    uint64
		lines     []uint64
		invErr    error
		bad       map[uint64]bool
		cancelAt  uint64 // try cancels the context when it sees this line
		wantTried []uint64
		wantFail  []uint64
		wantFalls uint64
		wantErr   error    // errors.Is target; nil = success
		wantInMsg []string // substrings of the error text
	}{
		{name: "first line good", lines: []uint64{5, 4, 3},
			wantTried: []uint64{5}},
		{name: "newest bad, older good", lines: []uint64{5, 4, 3}, bad: map[uint64]bool{5: true},
			wantTried: []uint64{5, 4}, wantFail: []uint64{5}, wantFalls: 1},
		{name: "lines found despite an inventory error are walked", lines: []uint64{5}, invErr: invDown,
			wantTried: []uint64{5}},
		{name: "all bad", lines: []uint64{5, 4, 3}, bad: map[uint64]bool{5: true, 4: true, 3: true},
			wantTried: []uint64{5, 4, 3}, wantFail: []uint64{5, 4, 3}, wantFalls: 2,
			wantErr: lineErr[3], wantInMsg: []string{"[5 4 3]"}},
		{name: "pinned line never falls back", pinned: 7, lines: []uint64{9, 8}, bad: map[uint64]bool{7: true},
			wantTried: []uint64{7}, wantFail: []uint64{7},
			wantErr: lineErr[7], wantInMsg: []string{"[7]"}},
		{name: "pinned line good", pinned: 7, lines: []uint64{9, 8},
			wantTried: []uint64{7}},
		{name: "canceled context stops the walk", lines: []uint64{5, 4, 3}, bad: map[uint64]bool{5: true}, cancelAt: 5,
			wantTried: []uint64{5}, wantFail: []uint64{5},
			wantErr: lineErr[5]},
		{name: "no lines", wantErr: ErrNoRestartLine},
		{name: "no lines because a level is down", invErr: invDown, wantErr: ErrLevelUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			falls := metrics.NewRegistry().Counter("fallbacks", "")
			var tried []uint64
			failed, err := WalkLines(ctx, tc.pinned,
				func() ([]uint64, error) {
					if tc.pinned != 0 {
						t.Error("inventory consulted although a line was pinned")
					}
					return tc.lines, tc.invErr
				},
				falls,
				func(line uint64) error {
					tried = append(tried, line)
					if line == tc.cancelAt {
						cancel()
					}
					if tc.bad[line] {
						return lineErr[line]
					}
					return nil
				})
			if !reflect.DeepEqual(tried, tc.wantTried) {
				t.Errorf("tried %v, want %v", tried, tc.wantTried)
			}
			if !reflect.DeepEqual(failed, tc.wantFail) {
				t.Errorf("failed lines %v, want %v", failed, tc.wantFail)
			}
			if got := falls.Value(); got != tc.wantFalls {
				t.Errorf("fallbacks counted %d, want %d", got, tc.wantFalls)
			}
			switch {
			case tc.wantErr == nil:
				if err != nil {
					t.Fatalf("walk failed: %v", err)
				}
			case err == nil:
				t.Fatalf("walk succeeded, want error %v", tc.wantErr)
			case !errors.Is(err, tc.wantErr):
				t.Fatalf("error %v does not wrap %v", err, tc.wantErr)
			}
			for _, s := range tc.wantInMsg {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not list %s", err, s)
				}
			}
		})
	}
}
