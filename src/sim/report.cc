#include "sim/report.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace spburst
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/** Render a double the way JSON wants it (no inf/nan). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(15);
    os << v;
    return os.str();
}

/** One CSV field as RFC 4180 writes it: quoted when it holds a comma,
 *  a quote or a line break, with every inner quote doubled. A trace
 *  workload is named after its spec ("trace:FILE,skip=N"). */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
toJson(const SimResult &result)
{
    const StatSet stats = result.toStatSet();
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(result.workload) << "\"";
    os << ",\"threads\":" << result.cores.size();
    for (const auto &[name, value] : stats.entries())
        os << ",\"" << jsonEscape(name) << "\":" << jsonNumber(value);
    os << "}";
    return os.str();
}

std::string
toJson(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i)
            os << ",\n ";
        os << toJson(results[i]);
    }
    os << "]";
    return os.str();
}

std::string
toJsonLine(const std::string &job, const SimResult &result)
{
    // Splice the "job" field in front of the toJson() object body.
    const std::string body = toJson(result);
    return "{\"job\":\"" + jsonEscape(job) + "\"," + body.substr(1);
}

namespace
{

/**
 * Minimal parser for the flat JSON objects toJsonLine emits: string,
 * number, null and bool values only, no nesting. Returns false on any
 * syntax error so callers can skip the (truncated) line.
 */
class FlatJsonParser
{
  public:
    explicit FlatJsonParser(const std::string &line) : s_(line) {}

    bool
    parse(JsonlRecord &rec)
    {
        skipWs();
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        do {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            skipWs();
            if (!parseValue(key, rec))
                return false;
            skipWs();
        } while (consume(','));
        return consume('}');
    }

  private:
    bool
    consume(char c)
    {
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    void
    skipWs()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r'))
            ++i_;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (i_ >= s_.size())
                return false;
            const char esc = s_[i_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                  if (i_ + 4 > s_.size())
                      return false;
                  const unsigned code = static_cast<unsigned>(
                      std::strtoul(s_.substr(i_, 4).c_str(), nullptr,
                                   16));
                  i_ += 4;
                  if (code > 0xff)
                      return false; // toJsonLine never emits these
                  out += static_cast<char>(code);
                  break;
              }
              default:
                return false;
            }
        }
        return false; // unterminated
    }

    bool
    parseValue(const std::string &key, JsonlRecord &rec)
    {
        if (i_ >= s_.size())
            return false;
        if (s_[i_] == '"') {
            std::string v;
            if (!parseString(v))
                return false;
            if (key == "job")
                rec.job = v;
            else if (key == "workload")
                rec.workload = v;
            return true;
        }
        if (s_.compare(i_, 4, "null") == 0) {
            i_ += 4;
            rec.stats.set(key,
                          std::numeric_limits<double>::quiet_NaN());
            return true;
        }
        if (s_.compare(i_, 4, "true") == 0) {
            i_ += 4;
            rec.stats.set(key, 1.0);
            return true;
        }
        if (s_.compare(i_, 5, "false") == 0) {
            i_ += 5;
            rec.stats.set(key, 0.0);
            return true;
        }
        char *end = nullptr;
        const double v = std::strtod(s_.c_str() + i_, &end);
        if (end == s_.c_str() + i_)
            return false;
        i_ = static_cast<std::size_t>(end - s_.c_str());
        rec.stats.set(key, v);
        return true;
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

} // namespace

std::vector<JsonlRecord>
parseJsonl(std::istream &in)
{
    std::vector<JsonlRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonlRecord rec;
        if (FlatJsonParser(line).parse(rec))
            records.push_back(std::move(rec));
    }
    return records;
}

std::vector<JsonlRecord>
parseJsonlFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    return parseJsonl(in);
}

std::string
toCsv(const std::vector<SimResult> &results)
{
    // Column union in first-seen order.
    std::vector<std::string> columns;
    std::set<std::string> seen;
    std::vector<StatSet> stats;
    stats.reserve(results.size());
    for (const auto &r : results) {
        stats.push_back(r.toStatSet());
        for (const auto &[name, value] : stats.back().entries()) {
            (void)value;
            if (seen.insert(name).second)
                columns.push_back(name);
        }
    }

    std::ostringstream os;
    os << "workload";
    for (const auto &c : columns)
        os << "," << c;
    os << "\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << csvField(results[i].workload);
        for (const auto &c : columns) {
            os << ",";
            if (stats[i].has(c)) {
                std::ostringstream v;
                v.precision(12);
                v << stats[i].get(c);
                os << v.str();
            }
        }
        os << "\n";
    }
    return os.str();
}

} // namespace spburst
