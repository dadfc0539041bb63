#include "tree/scheme.h"

namespace cmt
{

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::kBase:
        return "base";
      case Scheme::kNaive:
        return "naive";
      case Scheme::kCached:
        return "cached";
      case Scheme::kIncremental:
        return "incremental";
    }
    return "?";
}

} // namespace cmt
