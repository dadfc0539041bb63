// Compile-fail fixture for the nodiscard_verdicts ctest. Dropping
// Authenticator::verify's verdict must not compile under
// -Werror=unused-result. Built with -DCONSUME, the verdict is used
// and the file must compile: that control proves the failure comes
// from the discard and not from a broken include path.
#include <cstdint>
#include <span>

#include "tree/authenticator.h"

bool
checkChunk(const cmt::Authenticator &auth,
           std::span<const std::uint8_t> chunk, const cmt::Slot &slot)
{
#ifdef CONSUME
    return auth.verify(chunk, slot);
#else
    auth.verify(chunk, slot);
    return true;
#endif
}
