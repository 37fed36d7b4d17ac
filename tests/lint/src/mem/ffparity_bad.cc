// Fixture: ff-stat-parity must flag a stat written under the ff(tick)
// tree but missing from the ff(skip) path (also via a per-context
// `t.stats.x` chain), and an ff(tick) root with no ff(skip) counterpart.
namespace fx
{

struct BurstStats
{
    unsigned long busyCycles = 0;
    unsigned long drained = 0;
};

class BurstUnit
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++stats_.busyCycles;
        finishDrain();
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        stats_.busyCycles += n;
    }

  private:
    void finishDrain()
    {
        ++stats_.drained;
    }

    BurstStats stats_;
};

class LoneTicker
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++cycles_;
    }

  private:
    unsigned long cycles_ = 0;
};

class ThreadedUnit
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        for (Context &t : ctx_) {
            ++t.stats.busyCycles;
            ++t.stats.drained;
        }
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        for (Context &t : ctx_)
            t.stats.busyCycles += n;
    }

  private:
    struct Context
    {
        BurstStats stats;
    };

    Context ctx_[2];
};

} // namespace fx
