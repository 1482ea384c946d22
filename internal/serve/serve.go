// Package serve is the serving half of the pipeline: a long-running
// prediction engine over trained deep-forest models. Where cmd/stac's
// batch subcommands train and evaluate offline, serve answers the
// paper's actual product question — "what will this query's response
// time be under this allocation, right now?" — under deadlines and
// sustained load.
//
// The engine composes four layers, each with its own knobs:
//
//	admission   a token-bucket rate limit (429), a bounded queue (503)
//	            and per-request deadlines (504) with typed JSON errors
//	cache       memoized predictions keyed by quantised scenario — the
//	            short-term allocation model is consulted per query while
//	            runtime conditions move on a much slower timescale, so
//	            steady-state consults are cache hits
//	batcher     concurrent single predictions coalesce into
//	            deepforest.Model.PredictBatch calls: whatever queued
//	            while the model was busy runs together, up to max-batch
//	registry    versioned models loaded from disk with atomic hot
//	            reload; the old version is drained (in-flight requests
//	            finish on it), never dropped mid-request
//
// Everything funnels into internal/obs under the "serve/" prefix:
// prediction latency (p50/p95/p99), batch-size histogram, queue depth,
// shed counters, cache hit/miss, model version. The HTTP front end
// (Server) exposes /predict, /search, /admin/reload, /metrics and
// /healthz; internal/serve/loadgen drives either the HTTP surface or
// the in-process engine.
package serve

import (
	"fmt"
	"net/http"
)

// Error is a typed serving error. Code is machine-readable and stable;
// Status is the HTTP status the front end maps it to. The admission
// layer sheds with ErrQueueFull/ErrRateLimited/ErrDraining and fails
// late requests with ErrDeadlineExceeded — load generators and clients
// key retry behaviour off Code, not the message.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"-"`
}

func (e *Error) Error() string { return fmt.Sprintf("serve: %s: %s", e.Code, e.Message) }

// Stable shed/error codes.
const (
	CodeQueueFull        = "queue_full"
	CodeRateLimited      = "rate_limited"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeDraining         = "draining"
	CodeBadRequest       = "bad_request"
	CodeNoModel          = "no_model"
	CodeInternal         = "internal"
)

func errQueueFull() *Error {
	return &Error{Code: CodeQueueFull, Status: http.StatusServiceUnavailable,
		Message: "admission queue is full"}
}

func errRateLimited() *Error {
	return &Error{Code: CodeRateLimited, Status: http.StatusTooManyRequests,
		Message: "request rate above the admission limit"}
}

func errDeadlineExceeded(where string) *Error {
	return &Error{Code: CodeDeadlineExceeded, Status: http.StatusGatewayTimeout,
		Message: "deadline exceeded " + where}
}

func errDraining() *Error {
	return &Error{Code: CodeDraining, Status: http.StatusServiceUnavailable,
		Message: "server is draining"}
}

func errBadRequest(msg string) *Error {
	return &Error{Code: CodeBadRequest, Status: http.StatusBadRequest, Message: msg}
}

func errNoModel() *Error {
	return &Error{Code: CodeNoModel, Status: http.StatusServiceUnavailable,
		Message: "no model version is loaded"}
}

func errInternal(err error) *Error {
	return &Error{Code: CodeInternal, Status: http.StatusInternalServerError, Message: err.Error()}
}

// AsError coerces any error into a typed *Error (internal by default).
func AsError(err error) *Error {
	if err == nil {
		return nil
	}
	if e, ok := err.(*Error); ok {
		return e
	}
	return errInternal(err)
}
