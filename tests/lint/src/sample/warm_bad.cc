// Fixture: src/sample/ is result-affecting (it builds the warm image,
// the checkpoint identity and the sample.* stats), so the
// nondeterminism rule fires here as it does under src/mem/.
#include <cstdlib>
#include <unordered_set>
#include <vector>

namespace fx
{

struct WarmImage
{
    std::unordered_set<unsigned long long> touched;
};

inline unsigned long long
firstTouched(const WarmImage &image)
{
    const std::vector<unsigned long long> blocks(image.touched.begin(),
                                                 image.touched.end());
    if (getenv("SPBURST_COLD_WARM") || blocks.empty())
        return 0;
    return blocks.front();
}

} // namespace fx
