package exp

// This file defines the unified bootstrap-protocol surface. Every
// message-level bootstrap in this reproduction — the linearization protocol
// (package ssr), ISPRP, VRR and the flood baseline — exposes the same
// operations; node.Protocol names that contract so harnesses and CLIs can
// treat "which protocol" as data instead of a switch statement per call
// site.

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/floodboot"
	"repro/internal/isprp"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/ssr"
	"repro/internal/vrr"
)

// Protocol is the bootstrap-protocol contract, declared once in package
// node; the alias keeps the harness signatures reading exp.Protocol.
type Protocol = node.Protocol

// protocolRegistry maps the CLI protocol names onto constructors. The
// configurations match what the experiments use as each protocol's
// representative setting: linearization with the bounded cache, ISPRP with
// its representative flood enabled, VRR and floodboot with defaults.
var protocolRegistry = map[string]func(net phys.Transport) Protocol{
	"linearization": func(net phys.Transport) Protocol {
		return ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded})
	},
	"isprp": func(net phys.Transport) Protocol {
		return isprp.NewCluster(net, isprp.Config{EnableFlood: true})
	},
	"vrr": func(net phys.Transport) Protocol {
		return vrr.NewCluster(net, vrr.Config{CloseRing: true})
	},
	"flood": func(net phys.Transport) Protocol {
		return floodboot.NewCluster(net)
	},
}

// ProtocolNames lists the registered bootstrap protocols, sorted.
func ProtocolNames() []string {
	out := make([]string, 0, len(protocolRegistry))
	for name := range protocolRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewBootProtocol starts the named bootstrap protocol over net — either a
// raw *phys.Network or the reliable sublayer wrapping one.
func NewBootProtocol(name string, net phys.Transport) (Protocol, error) {
	mk, ok := protocolRegistry[name]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (want one of %v)", name, ProtocolNames())
	}
	return mk(net), nil
}
