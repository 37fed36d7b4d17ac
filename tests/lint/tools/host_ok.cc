// Fixture: host-side directories (tools/, src/exp, bench setup) are
// exempt from the determinism rule — this rand() and this hash
// container are legal here.
#include <cstdlib>
#include <unordered_map>

namespace fx
{

inline unsigned
hostSeed()
{
    return rand();
}

inline unsigned
hostJobs(const std::unordered_map<int, unsigned> &jobsByHost)
{
    return static_cast<unsigned>(jobsByHost.size());
}

} // namespace fx
