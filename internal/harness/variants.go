package harness

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/onvm"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
)

// PlatformKind selects the execution platform model.
type PlatformKind int

// Platform kinds. Enum starts at one.
const (
	// PlatformBESS is the run-to-completion model.
	PlatformBESS PlatformKind = iota + 1
	// PlatformONVM is the pipelined model.
	PlatformONVM
)

// String returns the platform label.
func (k PlatformKind) String() string {
	switch k {
	case PlatformBESS:
		return "BESS"
	case PlatformONVM:
		return "OpenNetVM"
	default:
		return fmt.Sprintf("PlatformKind(%d)", int(k))
	}
}

// chainFactory builds a fresh chain; every platform variant gets its
// own NF instances so state never leaks between variants.
type chainFactory func() ([]core.NF, error)

// buildPlatform instantiates one platform variant.
func buildPlatform(kind PlatformKind, mk chainFactory, opts core.Options) (platform.Platform, error) {
	chain, err := mk()
	if err != nil {
		return nil, err
	}
	switch kind {
	case PlatformBESS:
		return bess.New(bess.Config{Chain: chain, Options: opts})
	case PlatformONVM:
		return onvm.New(onvm.Config{Chain: chain, Options: opts})
	default:
		return nil, fmt.Errorf("harness: unknown platform kind %d", int(kind))
	}
}

// runVariant builds a platform, runs the packets in batch-packet
// vectors (one-packet when batch <= 1) and partitions the
// measurements, closing the platform afterwards.
func runVariant(kind PlatformKind, mk chainFactory, opts core.Options, pkts []*packet.Packet, batch int) (*Partitioned, error) {
	p, err := buildPlatform(kind, mk, opts)
	if err != nil {
		return nil, err
	}
	defer func() { _ = p.Close() }()
	return runPartitioned(p, pkts, batch)
}
