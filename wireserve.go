package safecube

import (
	"repro/internal/serve"
)

// Binary wire-protocol facade: a WireServer serves the length-prefixed
// binary protocol (internal/wire) for a running Server — the data
// plane that saturates the routing engine where HTTP/JSON cannot. The
// HTTP surface stays for ops; the wire surface carries the traffic.
// See docs/OPERATIONS.md ("The binary wire protocol") for the frame
// layout, the opcode table and the error taxonomy.

// MaxBatchPairs is the largest batch either serving surface accepts:
// the wire listener's batch limit and the limit of slserve's HTTP
// /batch endpoint.
const MaxBatchPairs = serve.MaxBatchPairs

// WireOptions configure a wire listener. Every connection is served on
// one goroutine, in request order, with the MaxBatchPairs batch limit;
// a caller that wants frames run side by side opens more connections.
type WireOptions struct {
	// Registry receives the wire_* metrics (nil disables).
	Registry *Registry
}

// WireServer is a live binary-protocol listener bound to a Server.
type WireServer struct {
	ws *serve.WireServer
}

// ServeWire starts serving the binary protocol on addr (host:port;
// use ":0" to let the kernel pick and Addr to discover it). Close the
// returned WireServer before closing the Server.
func (s *Server) ServeWire(addr string, opts WireOptions) (*WireServer, error) {
	ws, err := serve.ListenWire(s.svc, addr, serve.WireOptions{Registry: opts.Registry})
	if err != nil {
		return nil, err
	}
	return &WireServer{ws: ws}, nil
}

// Addr returns the bound listen address.
func (w *WireServer) Addr() string { return w.ws.Addr() }

// Close stops accepting, closes every live connection and waits for
// each connection's goroutine to exit. Idempotent.
func (w *WireServer) Close() error { return w.ws.Close() }
