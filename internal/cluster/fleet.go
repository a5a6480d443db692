package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
)

// Role assigns a fleet member to a disaggregation pool.
type Role int

const (
	// RoleBoth serves requests end to end — a monolithic instance that
	// participates in prefill placement and can also absorb handoffs.
	RoleBoth Role = iota
	// RolePrefill runs prompt processing only: every admitted request
	// stops at its first token and hands its KV cache away.
	RolePrefill
	// RoleDecode resumes handed-off requests mid-stream; the front door
	// never routes fresh arrivals here.
	RoleDecode
)

func (r Role) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	case RoleBoth:
		return "both"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ParseRole maps a fleet-spec role name to a Role; the empty string is
// RoleBoth (an untagged group serves monolithically).
func ParseRole(name string) (Role, error) {
	switch name {
	case "prefill":
		return RolePrefill, nil
	case "decode":
		return RoleDecode, nil
	case "both", "":
		return RoleBoth, nil
	}
	return 0, fmt.Errorf("cluster: unknown role %q (have prefill|decode|both)", name)
}

// Group is one homogeneous slice of a fleet: Count instances of one
// platform in one role.
type Group struct {
	Platform *hw.Platform
	Count    int
	Role     Role
}
