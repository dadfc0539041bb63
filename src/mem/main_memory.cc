#include "mem/main_memory.h"

#include <algorithm>

#include "mem/storage.h"
#include "support/event.h"
#include "support/logging.h"
#include "support/stats.h"

namespace cmt
{

MainMemory::MainMemory(EventQueue &events, Storage &,
                       const MemTimingParams &params, StatGroup &stats)
    : stat_reads(stats, "mem.reads", "block reads issued to DRAM"),
      stat_writes(stats, "mem.writes", "block writes issued to DRAM"),
      stat_bytesRead(stats, "mem.bytes_read",
                     "bytes transferred RAM -> chip"),
      stat_bytesWritten(stats, "mem.bytes_written",
                        "bytes transferred chip -> RAM"),
      events_(events), params_(params)
{
    cmt_assert(params_.busWidthBytes > 0);
    cmt_assert(params_.cpuCyclesPerBusCycle > 0);
}

Cycle
MainMemory::transferCycles(unsigned size) const
{
    const unsigned bus_cycles =
        (size + params_.busWidthBytes - 1) / params_.busWidthBytes;
    return static_cast<Cycle>(bus_cycles) * params_.cpuCyclesPerBusCycle;
}

Cycle
MainMemory::reserveRead(unsigned size)
{
    ++stat_reads;
    stat_bytesRead += size;

    const Cycle now = events_.now();
    const Cycle addr_slot = std::max(now, addrBusFree_);
    addrBusFree_ = addr_slot + params_.cpuCyclesPerBusCycle;

    const Cycle data_ready = addr_slot + params_.dramLatency;
    const Cycle data_slot = std::max(data_ready, dataBusFree_);
    const Cycle transfer = transferCycles(size);
    dataBusFree_ = data_slot + transfer;
    dataBusBusy_ += transfer;
    return data_slot + transfer;
}

void
MainMemory::read(std::uint64_t addr, unsigned size,
                 ReadCallback on_complete)
{
    (void)addr;
    events_.schedule(reserveRead(size), std::move(on_complete));
}

void
MainMemory::readChain(unsigned size, unsigned count,
                      ReadCallback on_complete)
{
    cmt_assert(count > 0);
    Cycle last = 0;
    for (unsigned i = 0; i < count; ++i)
        last = reserveRead(size);
    events_.schedule(last, std::move(on_complete));
}

void
MainMemory::write(std::uint64_t addr, unsigned size,
                  WriteCallback on_complete)
{
    (void)addr;
    ++stat_writes;
    stat_bytesWritten += size;

    const Cycle now = events_.now();
    const Cycle addr_slot = std::max(now, addrBusFree_);
    addrBusFree_ = addr_slot + params_.cpuCyclesPerBusCycle;

    const Cycle data_slot = std::max(addr_slot, dataBusFree_);
    const Cycle transfer = transferCycles(size);
    dataBusFree_ = data_slot + transfer;
    dataBusBusy_ += transfer;

    if (on_complete)
        events_.schedule(data_slot + transfer, std::move(on_complete));
}

} // namespace cmt
