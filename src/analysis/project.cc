#include "analysis/project.hh"

#include <filesystem>
#include <set>

namespace spburst::lint
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *kFirstPartyDirs[] = {"src", "bench", "tools"};

/** Directories whose code can affect simulated results. A file is
 *  result-affecting when any of these appears in its relative path, so
 *  fixture corpora (tests/lint/src/cpu/...) classify the same way as
 *  the real tree. */
constexpr std::string_view kResultAffectingDirs[] = {
    "src/cpu/",    "src/mem/",    "src/core/",   "src/prefetch/",
    "src/sim/",    "src/sample/", "src/common/", "src/check/",
    "src/trace/",  "src/energy/",
};

std::string
relativeTo(const std::string &path, const std::string &root)
{
    if (!root.empty() && path.size() > root.size() &&
        path.compare(0, root.size(), root) == 0 &&
        path[root.size()] == '/')
        return path.substr(root.size() + 1);
    return path;
}

/** Parse `spburst-lint: allow(<rule>, ...)` comments. A trailing
 *  comment silences its own line; a comment alone on a line silences
 *  the next line. Anything after `--` is a human justification. */
void
parseSuppressions(FileContext &file)
{
    for (const Comment &c : file.lex.comments) {
        const std::string_view text = c.text;
        const std::size_t tag = text.find("spburst-lint:");
        if (tag == std::string_view::npos)
            continue;
        const std::size_t allow = text.find("allow(", tag);
        if (allow == std::string_view::npos)
            continue;
        const std::size_t open = allow + 5;
        const std::size_t close = text.find(')', open);
        if (close == std::string_view::npos)
            continue;
        Suppression s;
        s.commentLine = c.line;
        s.targetLine = c.ownLine ? c.endLine + 1 : c.line;
        std::string id;
        bool valid = true;
        auto flush = [&] {
            // Rule ids are [a-z0-9-]; anything else (e.g. the "<rule>"
            // placeholders in documentation) is not a suppression.
            if (!id.empty() && valid)
                s.rules.insert(id);
            id.clear();
            valid = true;
        };
        for (std::size_t i = open + 1; i <= close; ++i) {
            const char ch = i < close ? text[i] : ',';
            if (ch == ',' || i == close) {
                flush();
            } else if (ch != ' ' && ch != '\t') {
                if (!((ch >= 'a' && ch <= 'z') ||
                      (ch >= '0' && ch <= '9') || ch == '-'))
                    valid = false;
                id.push_back(ch);
            }
        }
        if (!s.rules.empty())
            file.suppressions.push_back(std::move(s));
    }
}

} // namespace

std::vector<std::string>
filesFromTree(const std::string &root)
{
    std::set<std::string> files;
    for (const char *dir : kFirstPartyDirs) {
        const fs::path base = fs::path(root) / dir;
        std::error_code ec;
        if (!fs::is_directory(base, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(base, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext == ".cc" || ext == ".hh")
                files.insert(
                    fs::weakly_canonical(it->path()).generic_string());
        }
    }
    return {files.begin(), files.end()};
}

std::unique_ptr<FileContext>
makeFile(const std::string &path, const std::string &root,
         std::string source)
{
    auto file = std::make_unique<FileContext>();
    file->relPath = relativeTo(path, root);
    for (std::string_view dir : kResultAffectingDirs) {
        if (file->relPath.find(dir) != std::string::npos) {
            file->resultAffecting = true;
            break;
        }
    }
    file->lex.source = std::move(source);
    lex(file->lex);
    parseSuppressions(*file);
    return file;
}

} // namespace spburst::lint
