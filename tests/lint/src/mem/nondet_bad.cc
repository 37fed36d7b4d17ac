// Fixture: the nondeterminism rule must fire on every banned use below.
#include <cstdlib>
#include <ctime>

namespace fx
{

unsigned long long
seedFromHost()
{
    unsigned long long s = rand();
    s += static_cast<unsigned long long>(std::time(nullptr));
    s ^= std::chrono::steady_clock::now().time_since_epoch().count();
    if (getenv("SPBURST_SEED"))
        s += 1;
    return s;
}

inline unsigned long long
hashedCount(const std::unordered_map<int, int> &blocks)
{
    return blocks.size();
}

} // namespace fx
