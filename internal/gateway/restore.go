package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"

	"ndpcr/internal/cluster"
	"ndpcr/internal/node"
)

// restoreRequest is the POST /restore body: the checkpointed topology, the
// restart topology, and an optional pinned restart line (zero = newest,
// with newest-to-oldest fallback).
type restoreRequest struct {
	Ranks       int    `json:"ranks"`
	TargetRanks int    `json:"target_ranks"`
	Line        uint64 `json:"line,omitempty"`
}

// restoreResponse is the plan-mode response: the plan — the chosen line and
// the full source-shard map (which source ranks' shard ranges each target
// fetches) — plus the newer lines abandoned before it.
type restoreResponse struct {
	cluster.RestorePlan
	FailedLines []uint64 `json:"failed_lines,omitempty"`
}

// maxRanks bounds a restore's source and target rank counts, checked before
// anything is sized from them: a plan holds an entry per target and the
// planner counts per source rank, so an unchecked count is an allocation of
// the tenant's choosing. The paper's largest machine (Table 1) has 100,000
// nodes.
const maxRanks = 100_000

// handleRestore is the elastic restore endpoint:
//
//	POST /v1/ns/{ns}/runs/{run}/restore            — plan mode
//	POST /v1/ns/{ns}/runs/{run}/restore?member=T   — member mode
//
// Plan mode runs the restore planner over the store and returns the typed
// plan (chosen line, source-shard map) without moving any payload bytes.
// Member mode additionally executes target T's slice of the plan — fetches
// the planned shard ranges from the store, re-assembles them — and serves
// the member snapshot the T-th restart rank boots from, with the chosen
// line and step in the usual snapshot headers.
//
// Both modes walk restart lines newest to oldest when no line is pinned
// (cluster.WalkLines): a line whose plan or payload turns out unreadable is
// abandoned (counted in ndpcr_gateway_restore_fallbacks_total) in favor of
// the next-older one. Clients restoring many members should plan once and
// pin the returned line so every member restores the same cut.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, _, q, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	var req restoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return errf(http.StatusBadRequest, "bad_request", "decoding restore request: %v", err)
	}
	if req.Ranks <= 0 || req.Ranks > maxRanks {
		return errf(http.StatusBadRequest, "bad_request", "ranks must be in [1, %d], got %d", maxRanks, req.Ranks)
	}
	if req.TargetRanks == 0 {
		req.TargetRanks = req.Ranks
	}
	if req.TargetRanks < 0 || req.TargetRanks > maxRanks {
		return errf(http.StatusBadRequest, "bad_request", "target_ranks must be in [1, %d], got %d", maxRanks, req.TargetRanks)
	}
	member := -1
	if v := q.Get("member"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 0 || m >= req.TargetRanks {
			return errf(http.StatusBadRequest, "bad_request",
				"invalid member %q for %d targets", v, req.TargetRanks)
		}
		member = m
	}
	// Store-only: the member's future NVM does not hold the source job's
	// state.
	return s.restore(w, r, st, job, req, member, true)
}

// restore walks the recovery ladder over the store's restart lines for
// req's topology (or req's pinned line alone), planning each line. With
// member < 0 the first plannable line's plan is the response. Otherwise the
// plan's slice for that member is executed through a session node keyed by
// the member's rank — storeOnly keeps the session's local levels out of a
// whole-snapshot fetch of its own rank — and the first line that restores is
// served as the member snapshot, with line and step in the usual headers.
func (s *Server) restore(w http.ResponseWriter, r *http.Request, st *tenantState,
	job string, req restoreRequest, member int, storeOnly bool) *apiError {
	ctx := r.Context()
	var n *node.Node
	if member >= 0 {
		var err error
		if n, err = s.session(ctx, job, member, st); err != nil {
			return mapStoreErr(err, "session")
		}
	}
	var plan cluster.RestorePlan
	out := snapshotResponse{s: s, w: w, st: st}
	failed, err := cluster.WalkLines(ctx, req.Line,
		func() ([]uint64, error) { return cluster.StoreRestartLines(ctx, s.cfg.Store, job, req.Ranks) },
		s.mRestoreFallbacks,
		func(line uint64) (err error) {
			plan, err = cluster.PlanRestore(ctx, s.cfg.Store, job, cluster.RestoreSpec{
				SourceRanks: req.Ranks, TargetRanks: req.TargetRanks, Line: line,
			})
			if err != nil || member < 0 {
				return err
			}
			out.id = plan.Line
			err = n.RestoreElasticTo(ctx, plan.Targets[member], storeOnly, out.sink)
			if err != nil && out.started {
				// Bytes are out: no older line can take over, kill the connection.
				out.finish(err, "restore")
			}
			return err
		})
	if member >= 0 {
		return out.finish(err, "restore")
	}
	if err != nil {
		return mapStoreErr(err, "restore")
	}
	writeJSON(w, http.StatusOK, restoreResponse{RestorePlan: plan, FailedLines: failed})
	return nil
}
