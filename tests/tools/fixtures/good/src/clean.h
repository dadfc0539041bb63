// Positive fixture: everything in here is idiomatic CMT code the
// linter must NOT flag.

#ifndef CMT_TESTS_TOOLS_FIXTURES_GOOD_SRC_CLEAN_H
#define CMT_TESTS_TOOLS_FIXTURES_GOOD_SRC_CLEAN_H

// cmt-analyze: allow(stdout-discipline) - justified FILE* formatting use
#include <cstdio>
#include <memory>
#include <vector>

namespace fixture
{

class Widget
{
  public:
    Widget() = default;
    // Deleted members must not trip the naked-new rule.
    Widget(const Widget &) = delete;
    Widget &operator=(const Widget &) = delete;

    // "renews" and "deleted" contain the keywords as substrings.
    void renews();
    bool deleted() const;

  private:
    std::vector<std::unique_ptr<int>> owned_;
};

} // namespace fixture

#endif // CMT_TESTS_TOOLS_FIXTURES_GOOD_SRC_CLEAN_H
