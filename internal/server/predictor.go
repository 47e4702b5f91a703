package server

// The predictor control plane: GET /v1/predictor reports the active spec
// and the daemon-lifetime scorecard; POST /v1/predictor hot-swaps the
// predictor without a restart. A swap builds the new predictor first and
// only then atomically replaces the System pointer, so requests in flight
// finish on the predictor they started with and a rejected spec leaves the
// old predictor live.

import (
	"net/http"

	"hetsched"
	"hetsched/internal/core"
)

// predictorState assembles the GET /v1/predictor (and successful POST)
// response for one System snapshot.
func (s *Server) predictorState(sys *hetsched.System) PredictorStateResponse {
	spec := sys.PredictorSpec()
	met := s.met.Snapshot()
	resp := PredictorStateResponse{
		Spec:       spec.String(),
		Online:     spec.Online(),
		Swaps:      met.PredictorSwaps,
		Cumulative: met.Predictor,
	}
	if rep, ok := sys.Pred.(core.PredictorReporter); ok {
		snap := rep.PredictorSnapshot()
		resp.Members = predictorWire(&snap).Members
	} else {
		// Single legacy predictors have no member decomposition: one row.
		resp.Members = []PredictorMemberWire{{Name: spec.String(), Weight: 1}}
	}
	return resp
}

// handlePredictorGet serves GET /v1/predictor.
func (s *Server) handlePredictorGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.predictorState(s.system()))
}

// handlePredictorSwap serves POST /v1/predictor: parse, build, then
// atomically publish. Swaps are serialized so concurrent posts cannot
// interleave build-then-store sequences and resurrect a stale predictor.
func (s *Server) handlePredictorSwap(w http.ResponseWriter, r *http.Request) {
	var req PredictorSwapRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if req.Spec == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing field: spec")
		return
	}
	spec, err := hetsched.ParsePredictorSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.system()
	next, err := cur.WithPredictorSpec(spec)
	if err != nil {
		// The build failed; cur was never replaced, so the old predictor
		// keeps serving.
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	s.sys.Store(next)
	s.met.observeSwap()
	s.cfg.Logger.Printf("msg=predictor-swapped from=%s to=%s",
		cur.PredictorName(), next.PredictorName())
	writeJSON(w, http.StatusOK, s.predictorState(next))
}
