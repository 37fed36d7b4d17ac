#include "analysis/project.hh"

#include <map>

#include "analysis/util.hh"

namespace spburst::lint
{

namespace
{

/** Directories whose code can affect simulated results. A file is
 *  result-affecting when any of these appears in its relative path, so
 *  fixture corpora (tests/lint/src/cpu/...) classify the same way as
 *  the real tree. */
constexpr std::string_view kResultAffectingDirs[] = {
    "src/cpu/",  "src/mem/",    "src/core/",  "src/prefetch/",
    "src/sim/",  "src/common/", "src/check/", "src/trace/",
    "src/energy/",
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

std::string
stemOf(const std::string &relPath)
{
    const std::size_t slash = relPath.find_last_of('/');
    std::string base =
        slash == std::string::npos ? relPath : relPath.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
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

/** Map of class-body '{' token index -> class name, for scope
 *  tracking during the declaration sweep. */
std::map<std::size_t, std::string>
classBodyOpens(const std::vector<Token> &toks)
{
    std::map<std::size_t, std::string> opens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!(isIdent(toks[i], "class") || isIdent(toks[i], "struct")))
            continue;
        if (i > 0 && isIdent(toks[i - 1], "enum"))
            continue;
        std::size_t j = i + 1;
        if (j >= toks.size() || toks[j].kind != TokKind::Ident)
            continue;
        const std::string name(toks[j].text);
        // Scan to the body '{' (through any base-clause) or give up at
        // a ';' (forward declaration) or '(' (not a class at all).
        for (std::size_t k = j + 1; k < toks.size(); ++k) {
            if (isPunct(toks[k], "{")) {
                opens.emplace(k, name);
                break;
            }
            if (isPunct(toks[k], ";") || isPunct(toks[k], "("))
                break;
        }
    }
    return opens;
}

bool
isUnorderedContainer(const Token &t)
{
    return isIdent(t, "unordered_map") || isIdent(t, "unordered_set") ||
           isIdent(t, "unordered_multimap") ||
           isIdent(t, "unordered_multiset");
}

/** Pass A: unordered-container declarations (vars + accessor methods). */
void
indexUnorderedDecls(const FileContext &file, TypeIndex &types)
{
    const std::vector<Token> &toks = file.lex.tokens;
    const auto opens = classBodyOpens(toks);
    std::vector<std::pair<std::string, int>> classStack; // (name, depth)
    int depth = 0;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (isPunct(t, "{")) {
            ++depth;
            const auto it = opens.find(i);
            if (it != opens.end())
                classStack.emplace_back(it->second, depth);
            continue;
        }
        if (isPunct(t, "}")) {
            --depth;
            while (!classStack.empty() && classStack.back().second > depth)
                classStack.pop_back();
            continue;
        }
        if (!isUnorderedContainer(t))
            continue;
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "<"))
            continue;
        std::size_t j = matchTemplateClose(toks, i + 1);
        // Qualifiers between the type and the declarator.
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isIdent(toks[j], "const")))
            ++j;
        if (j >= toks.size() || toks[j].kind != TokKind::Ident)
            continue;
        const std::string name1(toks[j].text);
        const std::size_t after = j + 1;
        if (after >= toks.size())
            continue;
        if (isPunct(toks[after], "(")) {
            // Method declared inside a class body.
            const std::string cls =
                classStack.empty() ? std::string() : classStack.back().first;
            if (!cls.empty()) {
                types.unorderedMethods.insert(cls + "::" + name1);
                types.classesWithUnorderedMethods.insert(cls);
            }
            types.unorderedMethodsByStem[file.stem].insert(name1);
        } else if (isPunct(toks[after], "::") && after + 2 < toks.size() &&
                   toks[after + 1].kind == TokKind::Ident &&
                   isPunct(toks[after + 2], "(")) {
            // Out-of-class method definition: ... > &Class::method(
            const std::string method(toks[after + 1].text);
            types.unorderedMethods.insert(name1 + "::" + method);
            types.classesWithUnorderedMethods.insert(name1);
            types.unorderedMethodsByStem[file.stem].insert(method);
        } else if (isPunct(toks[after], ";") || isPunct(toks[after], "=") ||
                   isPunct(toks[after], "{") || isPunct(toks[after], ",") ||
                   isPunct(toks[after], ")")) {
            types.unorderedVarsByStem[file.stem].insert(name1);
        }
    }
}

/** Pass B: variables whose declared type is a class that owns
 *  unordered-returning methods (receiver resolution for rule
 *  unordered-iteration). */
void
indexClassVars(const FileContext &file, TypeIndex &types)
{
    const std::vector<Token> &toks = file.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        const std::string cls(t.text);
        if (types.classesWithUnorderedMethods.count(cls) == 0)
            continue;
        if (i > 0 && (isIdent(toks[i - 1], "class") ||
                      isIdent(toks[i - 1], "struct")))
            continue; // the declaration of the class itself
        std::size_t j = i + 1;
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isIdent(toks[j], "const")))
            ++j;
        if (j == i + 1 || j >= toks.size() ||
            toks[j].kind != TokKind::Ident)
            continue; // require at least one qualifier: Foo *x / Foo &x
        const std::string name(toks[j].text);
        if (j + 1 < toks.size() &&
            (isPunct(toks[j + 1], ";") || isPunct(toks[j + 1], "=") ||
             isPunct(toks[j + 1], "{") || isPunct(toks[j + 1], ",") ||
             isPunct(toks[j + 1], ")")))
            types.varClassByStem[file.stem][name] = cls;
    }
}

} // namespace

std::unique_ptr<FileContext>
makeFile(const std::string &path, const std::string &root,
         std::string source)
{
    auto file = std::make_unique<FileContext>();
    file->relPath = relativeTo(path, root);
    file->stem = stemOf(file->relPath);
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

void
buildIndices(Project &project)
{
    project.types = TypeIndex{};
    for (const auto &file : project.files)
        indexUnorderedDecls(*file, project.types);
    for (const auto &file : project.files)
        indexClassVars(*file, project.types);
}

} // namespace spburst::lint
