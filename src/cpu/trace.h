/**
 * @file
 * The trace-driven instruction abstraction.
 *
 * The paper's evaluation runs Alpha SPEC CPU2000 binaries on
 * SimpleScalar; we drive the same microarchitecture model with
 * instruction traces. A TraceSource yields decoded instructions with
 * explicit data-dependence distances, memory addresses and branch
 * outcomes - everything the timing model needs, nothing it does not.
 */

#ifndef CMT_CPU_TRACE_H
#define CMT_CPU_TRACE_H

#include <cstdint>
#include <memory>
#include <utility>

namespace cmt
{

/** Functional unit class of an instruction. */
enum class InstrType : std::uint8_t
{
    kAlu,    ///< 1-cycle integer op
    kMul,    ///< 3-cycle integer multiply
    kFpu,    ///< 4-cycle floating-point op
    kLoad,   ///< 8-byte memory read
    kStore,  ///< 8-byte memory write
    kBranch, ///< conditional branch
    kCrypto, ///< signing primitive: commits only after all checks pass
};

/** One dynamic instruction. */
struct TraceInstr
{
    InstrType type = InstrType::kAlu;
    /** Data-dependence distances: this instruction consumes the
     *  results of the instructions `dist` earlier (0 = no dep). */
    std::uint8_t srcDist[2] = {0, 0};
    /** Instruction address (drives I-cache behaviour). */
    std::uint64_t pc = 0;
    /** Effective address for loads/stores (8-byte aligned). */
    std::uint64_t addr = 0;
    /** Value written by stores. */
    std::uint64_t storeValue = 0;
    /** Branch outcome. */
    bool taken = false;
};

/** A stream of dynamic instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next instruction; false at end of stream. */
    virtual bool next(TraceInstr &out) = 0;
};

/**
 * Address-displacing wrapper: shifts every pc and load/store address
 * by a fixed offset, giving a program a private memory slice.
 */
class OffsetTrace : public TraceSource
{
  public:
    OffsetTrace(std::unique_ptr<TraceSource> inner,
                std::uint64_t data_offset)
        : inner_(std::move(inner)), offset_(data_offset)
    {}

    bool
    next(TraceInstr &out) override
    {
        if (!inner_->next(out))
            return false;
        if (out.type == InstrType::kLoad ||
            out.type == InstrType::kStore)
            out.addr += offset_;
        out.pc += offset_;
        return true;
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t offset_;
};

} // namespace cmt

#endif // CMT_CPU_TRACE_H
