package memdef

import "shmgpu/internal/snapshot"

// Checkpoint/restore for requests, shared by every component that queues
// them (crossbar rings, L2 waiter lists, MEE pipelines). Cold path only.

// State codes the request.
func (r *Request) State(c *snapshot.Codec) {
	c.U64((*uint64)(&r.Phys))
	c.U64((*uint64)(&r.Local))
	c.Int(&r.Partition)
	c.U8((*uint8)(&r.Kind))
	c.U8((*uint8)(&r.Space))
	c.Int(&r.SM)
	c.Int(&r.Warp)
	c.U64(&r.ID)
}
