// Fixture: stat-hot-path negatives — a plain integer counter in the
// module's stats struct bumped in a hot function, a dynamic
// (non-literal) key, and a string key outside of any hot path.
namespace fx
{

struct PumpStats
{
    unsigned long long ticks = 0;
};

class Pump
{
  public:
    // spburst-lint: hot
    void tick() { ++counters_.ticks; }

    void finalize(const char *name)
    {
        // Cold: report assembly exports the counter by name.
        report_.set("pump.ticks", static_cast<double>(counters_.ticks));
        report_.set(name, 0.0); // dynamic key
    }

  private:
    PumpStats counters_;
    StatSet report_;
};

} // namespace fx
