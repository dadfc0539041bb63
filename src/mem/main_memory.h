/**
 * @file
 * Main-memory timing model: split address/data buses plus DRAM
 * latency. It moves no bytes: reads and writes alike are timing only.
 *
 * Matches the paper's setup (Section 6.3): "separate address and data
 * buses were implemented. All structures that access the main memory
 * including the L2 cache and the hash unit share the same bus." The
 * model reserves bus slots in request order:
 *
 *   read : addr bus 1 bus-cycle -> DRAM latency -> data bus occupies
 *          size/width bus-cycles; the requester's callback fires when
 *          the transfer completes. The requester samples the
 *          functional RAM itself in that callback, so its verdict
 *          sees RAM as it stands at the data-arrival instant (a
 *          tamper while the read is in flight is caught).
 *   write: addr bus 1 bus-cycle -> data bus transfer; the functional
 *          store is updated by the caller (atomically with the tree
 *          bookkeeping).
 *
 * Bandwidth saturation - the effect that makes the naive scheme ~10x
 * slower on swim/applu - emerges directly from data-bus contention.
 */

#ifndef CMT_MEM_MAIN_MEMORY_H
#define CMT_MEM_MAIN_MEMORY_H

#include <cstdint>

#include "mem/storage.h"
#include "support/callback.h"
#include "support/event.h"
#include "support/stats.h"

namespace cmt
{

/** Bus and DRAM parameters (defaults are the paper's Table 1). */
struct MemTimingParams
{
    /** CPU cycles per bus cycle (1 GHz CPU / 200 MHz bus). */
    unsigned cpuCyclesPerBusCycle = 5;
    /** Data bus width in bytes. */
    unsigned busWidthBytes = 8;
    /** DRAM access latency to the first chunk, in CPU cycles. */
    unsigned dramLatency = 80;
};

/** Shared front door to RAM for the L2 and the integrity machinery. */
class MainMemory
{
  public:
    /** Completion callbacks are inline-only (support/callback.h):
     *  oversized captures are a compile error, which keeps the
     *  miss-path allocation-free - pool big state instead. */
    using ReadCallback = SmallCallback<void()>;
    using WriteCallback = SmallCallback<void()>;

    /** The Storage parameter is unused (the model moves no bytes); it
     *  stays for source compatibility with existing callers. */
    MainMemory(EventQueue &events, Storage &,
               const MemTimingParams &params, StatGroup &stats);

    /**
     * Issue a block read for timing purposes only. @p on_complete
     * fires at data arrival; the caller reads the functional RAM
     * there, so what it sees is RAM at the arrival instant.
     */
    void read(std::uint64_t addr, unsigned size,
              ReadCallback on_complete);

    /**
     * Chain batching (DESIGN.md §11): reserve @p count back-to-back
     * reads of @p size bytes exactly as @p count read() calls at this
     * instant would - same counters, same bus state - but schedule
     * one event, @p on_complete, at the last arrival. Exact because
     * read() fixes each completion cycle at issue time and every
     * later read of the chain finishes strictly later; the one event
     * takes the last read's place in the same-cycle FIFO order. For
     * requesters whose earlier arrivals only count down to the last.
     */
    void readChain(unsigned size, unsigned count,
                   ReadCallback on_complete);

    /**
     * Issue a block write for timing purposes only; the caller is
     * responsible for the functional store update. @p on_complete may
     * be empty.
     */
    void write(std::uint64_t addr, unsigned size,
               WriteCallback on_complete = {});

    /** Cycles the data bus has been busy (bandwidth accounting). */
    Cycle dataBusBusyCycles() const { return dataBusBusy_; }

    /** Total bytes moved over the data bus. */
    std::uint64_t bytesTransferred() const
    {
        return stat_bytesRead.value() + stat_bytesWritten.value();
    }

    /** Peak data-bus bandwidth in bytes per CPU cycle. */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(params_.busWidthBytes) /
               params_.cpuCyclesPerBusCycle;
    }

    Counter stat_reads;
    Counter stat_writes;
    Counter stat_bytesRead;
    Counter stat_bytesWritten;

  private:
    /** CPU cycles the data bus needs for @p size bytes. */
    Cycle transferCycles(unsigned size) const;

    /** Reserve one read's bus slots; returns its arrival cycle. */
    Cycle reserveRead(unsigned size);

    EventQueue &events_;
    MemTimingParams params_;

    /** Next cycle at which the address bus is free. */
    Cycle addrBusFree_ = 0;
    /** Next cycle at which the data bus is free. */
    Cycle dataBusFree_ = 0;
    /** Accumulated data-bus occupancy. */
    Cycle dataBusBusy_ = 0;
};

} // namespace cmt

#endif // CMT_MEM_MAIN_MEMORY_H
