/**
 * @file
 * ShardRouter: the shard dimension of the integrity machinery.
 *
 * The paper verifies one tree under one set of root registers, which
 * serializes every check behind a single VerifyBuffer and hash unit.
 * The router partitions the protected address space into K independent
 * subtrees ("shards"), each with its own TreeLayout geometry, its own
 * root registers, and its own VerifyBuffer - the organisation the
 * scalable-disk literature uses to reach terabyte-class protected
 * regions. K = 1 degenerates to exactly the paper's single tree: every
 * global coordinate equals the per-shard coordinate and all traffic
 * flows through shard 0's context.
 *
 * Coordinates are shard-major: shard s owns global chunks
 * [s*span, (s+1)*span) and global RAM bytes [s*spanBytes,
 * (s+1)*spanBytes), where span is the per-shard TreeLayout's
 * totalChunks(). The router exposes the full TreeLayout arithmetic in
 * *global* coordinates so the controller and policies stay written in
 * terms of one address space; parentOf() never crosses a shard
 * boundary, so ancestor walks are shard-local by construction.
 *
 * The router - not its callers - is the only place allowed to touch
 * root registers: all reads and writes go through rootOf() /
 * TreeContext::roots (enforced by the cmt_analyze root-registers rule).
 */

#ifndef CMT_TREE_SHARD_ROUTER_H
#define CMT_TREE_SHARD_ROUTER_H

#include <cstdint>
#include <vector>

#include "support/logging.h"
#include "tree/authenticator.h"
#include "tree/layout.h"
#include "tree/verify_buffer.h"

namespace cmt
{

/** Per-shard mutable state: root registers + check buffers. */
struct TreeContext
{
    TreeContext(std::uint64_t arity, unsigned read_entries,
                unsigned write_entries)
        : roots(arity), buffers(read_entries, write_entries)
    {}

    /** On-chip root registers of this shard's subtree (arity slots). */
    std::vector<Slot> roots;
    /** This shard's hash read/write buffers + deferred misses. */
    VerifyBuffer buffers;
};

/** K independent subtrees behind one global address space. */
class ShardRouter
{
  public:
    /**
     * @param chunk_size          bytes per chunk (power of two >= 32)
     * @param protected_size      total data bytes across all shards;
     *                            must divide evenly by @p shards
     * @param shards              subtree count (power of two >= 1)
     * @param read_buffer_entries  per-shard read check-buffer entries
     * @param write_buffer_entries per-shard write check-buffer entries
     */
    ShardRouter(std::uint64_t chunk_size, std::uint64_t protected_size,
                unsigned shards = 1, unsigned read_buffer_entries = 16,
                unsigned write_buffer_entries = 16);

    unsigned shards() const { return shards_; }

    /** Geometry of one shard's subtree (identical across shards). */
    const TreeLayout &shardLayout() const { return layout_; }

    // ----- global geometry (mirrors TreeLayout, all shards) ----------

    std::uint64_t chunkSize() const { return layout_.chunkSize(); }
    std::uint64_t arity() const { return layout_.arity(); }
    unsigned levels() const { return layout_.levels(); }
    unsigned ancestorDepth() const { return layout_.ancestorDepth(); }

    /** Total chunks across all shards. */
    std::uint64_t totalChunks() const { return shards_ * span_; }

    /** Usable protected capacity across all shards. */
    std::uint64_t dataBytes() const
    {
        return shards_ * layout_.dataBytes();
    }

    /** Global chunks (and RAM bytes) owned by one shard. */
    std::uint64_t chunkSpan() const { return span_; }
    std::uint64_t byteSpan() const { return spanBytes_; }

    /** First data chunk of shard 0 (add s * chunkSpan() for shard s). */
    std::uint64_t firstDataChunk() const
    {
        return layout_.firstDataChunk();
    }

    /** RAM byte address of @p chunk's first byte. */
    std::uint64_t chunkAddr(std::uint64_t chunk) const
    {
        return chunk * layout_.chunkSize();
    }

    /** Chunk containing RAM byte address @p ram_addr. */
    std::uint64_t chunkOf(std::uint64_t ram_addr) const
    {
        return ram_addr / layout_.chunkSize();
    }

    /** RAM address of slot @p slot inside hash chunk @p chunk. */
    std::uint64_t slotAddr(std::uint64_t chunk, std::uint64_t slot) const
    {
        return chunkAddr(chunk) + slot * TreeLayout::kSlotSize;
    }

    /**
     * Parent chunk of @p chunk in global coordinates, or -1 if the
     * chunk's authenticator lives in its shard's root registers. The
     * walk never leaves the chunk's shard.
     */
    std::int64_t
    parentOf(std::uint64_t chunk) const
    {
        const std::int64_t local = layout_.parentOf(localChunk(chunk));
        if (local < 0)
            return -1;
        return static_cast<std::int64_t>(shardOfChunk(chunk) * span_) +
               local;
    }

    /** Slot index of @p chunk's authenticator in its parent. */
    std::uint64_t slotIndexOf(std::uint64_t chunk) const
    {
        return layout_.slotIndexOf(localChunk(chunk));
    }

    /** Child @p slot of hash chunk @p chunk (global coordinates). */
    std::uint64_t
    childOf(std::uint64_t chunk, std::uint64_t slot) const
    {
        return shardOfChunk(chunk) * span_ +
               layout_.childOf(localChunk(chunk), slot);
    }

    /** True if @p chunk holds authenticators rather than data. */
    bool isHashChunk(std::uint64_t chunk) const
    {
        return layout_.isHashChunk(localChunk(chunk));
    }

    /** Level (1 = just below the root registers) of @p chunk. */
    unsigned levelOf(std::uint64_t chunk) const
    {
        return layout_.levelOf(localChunk(chunk));
    }

    /** Translate a CPU physical address into the RAM address space. */
    std::uint64_t
    dataToRam(std::uint64_t cpu_addr) const
    {
        const std::uint64_t per_shard = layout_.dataBytes();
        const std::uint64_t shard = cpu_addr / per_shard;
        cmt_assert(shard < shards_);
        return shard * spanBytes_ +
               layout_.dataToRam(cpu_addr % per_shard);
    }

    /** Inverse of dataToRam. */
    std::uint64_t
    ramToData(std::uint64_t ram_addr) const
    {
        const std::uint64_t shard = shardOfRam(ram_addr);
        return shard * layout_.dataBytes() +
               layout_.ramToData(ram_addr % spanBytes_);
    }

    // ----- shard resolution ------------------------------------------

    /** Shard owning global chunk @p chunk. */
    std::uint64_t shardOfChunk(std::uint64_t chunk) const
    {
        cmt_assert(chunk < totalChunks());
        return chunk / span_;
    }

    /** Shard owning RAM byte address @p ram_addr. */
    std::uint64_t shardOfRam(std::uint64_t ram_addr) const
    {
        const std::uint64_t shard = ram_addr / spanBytes_;
        cmt_assert(shard < shards_);
        return shard;
    }

    /** Shard owning CPU physical address @p cpu_addr. */
    std::uint64_t shardOfData(std::uint64_t cpu_addr) const
    {
        const std::uint64_t shard = cpu_addr / layout_.dataBytes();
        cmt_assert(shard < shards_);
        return shard;
    }

    // ----- per-shard state -------------------------------------------

    TreeContext &context(std::uint64_t shard)
    {
        cmt_assert(shard < shards_);
        return contexts_[shard];
    }
    const TreeContext &context(std::uint64_t shard) const
    {
        cmt_assert(shard < shards_);
        return contexts_[shard];
    }

    /**
     * Root register holding @p chunk's authenticator; @p chunk must be
     * a root-level chunk (parentOf() < 0) of any shard.
     */
    Slot &
    rootOf(std::uint64_t chunk)
    {
        cmt_assert(layout_.parentOf(localChunk(chunk)) < 0);
        return contexts_[shardOfChunk(chunk)].roots[localChunk(chunk)];
    }
    /** Read-only rootOf(), for audits. */
    const Slot &
    rootOf(std::uint64_t chunk) const
    {
        cmt_assert(layout_.parentOf(localChunk(chunk)) < 0);
        return contexts_[shardOfChunk(chunk)].roots[localChunk(chunk)];
    }

    /** Check buffers of the shard owning global chunk @p chunk. */
    VerifyBuffer &buffersOfChunk(std::uint64_t chunk)
    {
        return contexts_[shardOfChunk(chunk)].buffers;
    }

    /** Check buffers of the shard owning RAM address @p ram_addr. */
    VerifyBuffer &buffersOfRam(std::uint64_t ram_addr)
    {
        return contexts_[shardOfRam(ram_addr)].buffers;
    }

    /** Set every root register of every shard to @p canonical. */
    void
    resetRoots(const Slot &canonical)
    {
        for (TreeContext &ctx : contexts_)
            for (Slot &root : ctx.roots)
                root = canonical;
    }

    /** Checks in flight across all shards. */
    unsigned
    pendingChecks() const
    {
        unsigned pending = 0;
        for (const TreeContext &ctx : contexts_)
            pending += ctx.buffers.pending();
        return pending;
    }

  private:
    /** Shard-local chunk index of global chunk @p chunk. */
    std::uint64_t localChunk(std::uint64_t chunk) const
    {
        return chunk % span_;
    }

    unsigned shards_;
    TreeLayout layout_; ///< one shard's geometry (shared by all)
    std::uint64_t span_;      ///< chunks per shard
    std::uint64_t spanBytes_; ///< RAM bytes per shard
    std::vector<TreeContext> contexts_;
};

} // namespace cmt

#endif // CMT_TREE_SHARD_ROUTER_H
