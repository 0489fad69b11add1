#include "tools/gadget_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace gadget {
namespace lint {
namespace {

const char kJustification[] = "intentionally ignored";

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view TrimLeft(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return s;
}

// 1-based line number of byte offset `pos` in `text`.
int LineOf(std::string_view text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
}

}  // namespace

std::string FormatFinding(const Finding& f) {
  std::ostringstream out;
  out << f.file << ":" << f.line << ": " << f.rule << ": " << f.message;
  return out.str();
}

Allowlist Allowlist::Parse(std::string_view text) {
  Allowlist list;
  const std::vector<std::string_view> lines = SplitLines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = TrimLeft(lines[i]);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    size_t space = line.find_first_of(" \t");
    if (space == std::string_view::npos) {
      continue;  // malformed: a rule with no path never suppresses anything
    }
    Entry e;
    e.rule = std::string(line.substr(0, space));
    e.line = static_cast<int>(i + 1);
    std::string_view rest = TrimLeft(line.substr(space));
    size_t end = rest.find_first_of(" \t");
    e.path_suffix = std::string(rest.substr(0, end));
    if (!e.path_suffix.empty()) {
      list.entries_.push_back(std::move(e));
    }
  }
  return list;
}

bool Allowlist::Allows(std::string_view file, std::string_view rule) const {
  bool allowed = false;
  for (const Entry& e : entries_) {
    if (e.rule == rule && (e.path_suffix == "*" || EndsWith(file, e.path_suffix))) {
      e.used = true;  // keep scanning: overlapping entries are all "used"
      allowed = true;
    }
  }
  return allowed;
}

std::vector<Allowlist::Entry> Allowlist::UnusedEntries() const {
  std::vector<Entry> out;
  for (const Entry& e : entries_) {
    if (!e.used) {
      out.push_back(e);
    }
  }
  return out;
}

std::string StripCommentsAndStrings(std::string_view src) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // for kRawString: )delim"
  size_t i = 0;
  auto put = [&](char c) { out.push_back(c == '\n' ? '\n' : c); };
  auto blank = [&](char c) { out.push_back(c == '\n' ? '\n' : ' '); };
  while (i < src.size()) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          blank(c);
          blank(next);
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          blank(c);
          blank(next);
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(src[i - 1])) &&
                               src[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim"
          size_t open = src.find('(', i + 2);
          if (open == std::string_view::npos) {
            put(c);
            ++i;
            break;
          }
          raw_terminator = ")" + std::string(src.substr(i + 2, open - (i + 2))) + "\"";
          state = State::kRawString;
          for (size_t j = i; j <= open; ++j) {
            blank(src[j]);
          }
          i = open + 1;
        } else if (c == '"') {
          state = State::kString;
          blank(c);
          ++i;
        } else if (c == '\'') {
          state = State::kChar;
          blank(c);
          ++i;
        } else {
          put(c);
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        }
        blank(c);
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          blank(c);
          blank(next);
          i += 2;
        } else {
          blank(c);
          ++i;
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && i + 1 < src.size()) {
          blank(c);
          blank(next);
          i += 2;
        } else {
          if ((state == State::kString && c == '"') || (state == State::kChar && c == '\'')) {
            state = State::kCode;
          }
          blank(c);
          ++i;
        }
        break;
      case State::kRawString:
        if (src.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (size_t j = 0; j < raw_terminator.size(); ++j) {
            blank(src[i + j]);
          }
          i += raw_terminator.size();
          state = State::kCode;
        } else {
          blank(c);
          ++i;
        }
        break;
    }
  }
  return out;
}

std::string ExpectedIncludeGuard(std::string_view path) {
  std::string p(path);
  while (p.rfind("./", 0) == 0) {
    p.erase(0, 2);
  }
  // Anchor at the rightmost top-level source directory so absolute paths and
  // out-of-tree invocations still compute the in-repo guard.
  static const char* kRoots[] = {"src", "tools", "tests", "bench", "examples"};
  size_t best = std::string::npos;
  for (const char* root : kRoots) {
    std::string needle = "/" + std::string(root) + "/";
    size_t pos = p.rfind(needle);
    if (pos != std::string::npos && (best == std::string::npos || pos > best)) {
      best = pos;
    }
  }
  if (best != std::string::npos) {
    p = p.substr(best + 1);
  }
  if (p.rfind("src/", 0) == 0) {
    p = p.substr(4);
  }
  std::string guard = "GADGET_";
  for (char c : p) {
    guard.push_back(std::isalnum(static_cast<unsigned char>(c))
                        ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                        : '_');
  }
  guard.push_back('_');
  return guard;
}

namespace {

void CheckIncludeGuard(std::string_view path, const std::vector<std::string_view>& stripped_lines,
                       std::vector<Finding>* findings) {
  const std::string expected = ExpectedIncludeGuard(path);
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    std::string_view line = TrimLeft(stripped_lines[i]);
    if (line.rfind("#ifndef", 0) != 0) {
      continue;
    }
    std::string_view name = TrimLeft(line.substr(7));
    size_t end = name.find_first_of(" \t");
    name = name.substr(0, end);
    if (name != expected) {
      findings->push_back({std::string(path), static_cast<int>(i + 1), "include-guard",
                           "include guard '" + std::string(name) + "' should be '" + expected +
                               "'"});
      return;
    }
    // The matching #define must follow (the next non-blank line).
    for (size_t j = i + 1; j < stripped_lines.size(); ++j) {
      std::string_view def = TrimLeft(stripped_lines[j]);
      if (def.empty()) {
        continue;
      }
      if (def.rfind("#define", 0) == 0 &&
          TrimLeft(def.substr(7)).substr(0, expected.size()) == expected) {
        return;  // guard is correct
      }
      break;
    }
    findings->push_back({std::string(path), static_cast<int>(i + 1), "include-guard",
                         "#ifndef " + expected + " is not followed by #define " + expected});
    return;
  }
  findings->push_back(
      {std::string(path), 1, "include-guard", "missing include guard; expected " + expected});
}

void CheckLockedRequires(std::string_view path, const std::string& stripped,
                         std::vector<Finding>* findings) {
  static const std::regex kLockedDecl(R"(([A-Za-z_][A-Za-z0-9_]*Locked)\s*\()");
  auto begin = std::sregex_iterator(stripped.begin(), stripped.end(), kLockedDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    size_t name_pos = static_cast<size_t>(it->position(1));
    // Skip uses that are clearly calls, not declarations: member access,
    // qualified names, and expression contexts.
    size_t p = name_pos;
    while (p > 0 && (stripped[p - 1] == ' ' || stripped[p - 1] == '\t' ||
                     stripped[p - 1] == '\n')) {
      --p;
    }
    if (p > 0) {
      char prev = stripped[p - 1];
      if (prev == '.' || prev == '>' || prev == ':' || prev == '=' || prev == '(' ||
          prev == ',' || prev == '!' || prev == '&' || prev == '|') {
        continue;
      }
      // `return FooLocked(...)` is a call.
      if (p >= 6 && stripped.compare(p - 6, 6, "return") == 0) {
        continue;
      }
    }
    // Find the parameter list's closing paren.
    size_t open = stripped.find('(', name_pos);
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t q = open; q < stripped.size(); ++q) {
      if (stripped[q] == '(') {
        ++depth;
      } else if (stripped[q] == ')' && --depth == 0) {
        close = q;
        break;
      }
    }
    if (close == std::string::npos) {
      continue;
    }
    size_t term = stripped.find_first_of(";{", close);
    if (term == std::string::npos) {
      continue;
    }
    std::string_view tail = std::string_view(stripped).substr(close, term - close);
    if (tail.find("REQUIRES") != std::string_view::npos ||
        tail.find("NO_THREAD_SAFETY_ANALYSIS") != std::string_view::npos) {
      continue;
    }
    findings->push_back({std::string(path), LineOf(stripped, name_pos), "locked-requires",
                         std::string(it->str(1)) +
                             " is a *Locked method but declares no REQUIRES(...) annotation"});
  }
}

void CheckBannedCalls(std::string_view path, const std::vector<std::string_view>& stripped_lines,
                      std::vector<Finding>* findings) {
  struct Banned {
    std::regex re;
    const char* message;
  };
  static const Banned kBanned[] = {
      {std::regex(R"(\brand\s*\()"),
       "rand() is banned: benchmarks must be reproducible; use the seeded "
       "std::mt19937 generators (src/distgen)"},
      {std::regex(R"(\bstrcpy\s*\()"),
       "strcpy() is banned: unbounded copy; use std::string"},
      {std::regex(R"(\bsprintf\s*\()"),
       "sprintf() is banned: unbounded format; use snprintf or std::string"},
      {std::regex(R"(\bsystem\s*\()"),
       "system() is banned: shells out of the benchmark harness"},
      {std::regex(R"(\bnew\s+[A-Za-z_][A-Za-z0-9_:<>]*\s*\[)"),
       "raw new[] is banned: use std::vector or std::string"},
  };
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string line(stripped_lines[i]);
    for (const Banned& b : kBanned) {
      if (std::regex_search(line, b.re)) {
        findings->push_back({std::string(path), static_cast<int>(i + 1), "banned-call", b.message});
      }
    }
  }
}

void CheckUsingNamespaceStd(std::string_view path,
                            const std::vector<std::string_view>& stripped_lines,
                            std::vector<Finding>* findings) {
  static const std::regex kUsing(R"(\busing\s+namespace\s+std\b)");
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    if (std::regex_search(std::string(stripped_lines[i]), kUsing)) {
      findings->push_back({std::string(path), static_cast<int>(i + 1), "using-namespace-std",
                           "headers must not `using namespace std` (pollutes every includer)"});
    }
  }
}

void CheckVoidStatus(std::string_view path, const std::vector<std::string_view>& raw_lines,
                     const std::vector<std::string_view>& stripped_lines,
                     std::vector<Finding>* findings) {
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    size_t pos = stripped_lines[i].find("(void)");
    if (pos == std::string_view::npos) {
      continue;
    }
    // Collect the statement after the cast (up to `;`, peeking at most three
    // lines ahead) and flag only discards of call expressions: `(void)x;`
    // silences an unused variable, which needs no justification.
    std::string stmt(stripped_lines[i].substr(pos + 6));
    for (size_t j = i + 1; j < stripped_lines.size() && j <= i + 3 &&
                           stmt.find(';') == std::string::npos;
         ++j) {
      stmt.append(stripped_lines[j]);
    }
    size_t semi = stmt.find(';');
    if (semi != std::string::npos) {
      stmt.resize(semi);
    }
    if (stmt.find('(') == std::string::npos) {
      continue;
    }
    bool justified = false;
    for (size_t j = i >= 3 ? i - 3 : 0; j <= i; ++j) {
      if (raw_lines[j].find(kJustification) != std::string_view::npos) {
        justified = true;
        break;
      }
    }
    if (!justified) {
      findings->push_back(
          {std::string(path), static_cast<int>(i + 1), "void-status",
           "discarded call result; add a nearby `// ... intentionally ignored: <why>` "
           "comment or handle the status"});
    }
  }
}

// A RenameFile call that is not followed by a SyncDir within the next few
// lines: the rename only becomes crash-durable once the parent directory
// entry is synced, so an unpaired rename re-opens the manifest/WAL crash
// window (DESIGN.md "Durability contract"). The declaration and definition
// of RenameFile itself (`Status RenameFile(...)`) are not calls.
void CheckRenameSync(std::string_view path, const std::vector<std::string_view>& stripped_lines,
                     std::vector<Finding>* findings) {
  static const std::regex kCall(R"(\bRenameFile\s*\()");
  static const std::regex kDecl(R"(\bStatus\s+RenameFile\s*\()");
  constexpr size_t kWindow = 8;  // lines after the call that may hold the sync
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string line(stripped_lines[i]);
    if (!std::regex_search(line, kCall) || std::regex_search(line, kDecl)) {
      continue;
    }
    bool synced = false;
    for (size_t j = i; j < stripped_lines.size() && j <= i + kWindow; ++j) {
      if (stripped_lines[j].find("SyncDir") != std::string_view::npos) {
        synced = true;
        break;
      }
    }
    if (!synced) {
      findings->push_back(
          {std::string(path), static_cast<int>(i + 1), "rename-sync",
           "RenameFile without a nearby SyncDir: the rename is not crash-durable until "
           "the parent directory is synced (see DESIGN.md \"Durability contract\")"});
    }
  }
}

// Block reads belong to the shared buffer pool: the legacy BlockCache type
// must not come back, and raw pread() calls outside src/stores/bufferpool/
// bypass the pool's IoBackend (no batching, no io_in_flight accounting).
// file_util's PreadAll, the tree's one positional-read loop, is allowlisted.
void CheckBufferPoolBypass(std::string_view path,
                           const std::vector<std::string_view>& stripped_lines,
                           std::vector<Finding>* findings) {
  if (path.find("src/stores/bufferpool/") != std::string_view::npos) {
    return;  // the pool's own implementation
  }
  static const std::regex kBlockCache(R"(\bBlockCache\b)");
  static const std::regex kPread(R"((^|[^A-Za-z0-9_:])(::\s*)?pread(64)?\s*\()");
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string line(stripped_lines[i]);
    if (std::regex_search(line, kBlockCache)) {
      findings->push_back({std::string(path), static_cast<int>(i + 1), "bufferpool-bypass",
                           "BlockCache was replaced by the shared BufferPool "
                           "(src/stores/bufferpool/); use BufferPool + PinnedBlock"});
    }
    if (std::regex_search(line, kPread)) {
      findings->push_back({std::string(path), static_cast<int>(i + 1), "bufferpool-bypass",
                           "raw pread() outside src/stores/bufferpool/ bypasses the pool's "
                           "IoBackend (no batching or in-flight accounting); read through "
                           "BufferPool/IoBackend or an allowlisted helper"});
    }
  }
}

// Raw socket syscalls and io_uring socket opcodes belong to src/server/net/:
// every other layer talks through the net:: helpers / FramedConn so framing,
// partial-write handling, EINTR retries and SIGPIPE suppression are decided
// once. The call matcher requires a non-identifier (and non `.`/`->`/`:`)
// character before the call so method calls like conn->Send(...) never fire;
// the opcode matcher covers only the SOCKET opcodes (IORING_OP_READ/WRITE
// stay legal for the buffer pool's file backend).
void CheckRawSocket(std::string_view path, const std::vector<std::string_view>& stripped_lines,
                    std::vector<Finding>* findings) {
  if (path.find("src/server/net/") != std::string_view::npos) {
    return;  // the one sanctioned home of the syscalls
  }
  static const std::regex kSyscall(
      R"((^|[^A-Za-z0-9_.>:])(::\s*)?(socket|send|recv|sendto|recvfrom|sendmsg|recvmsg|writev)\s*\()");
  static const std::regex kSocketOpcode(
      R"(IORING_OP_(SENDMSG|SEND|RECVMSG|RECV|WRITEV)([^A-Za-z0-9_]|$))");
  for (size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string line(stripped_lines[i]);
    std::smatch m;
    if (std::regex_search(line, m, kSyscall)) {
      findings->push_back({std::string(path), static_cast<int>(i + 1), "raw-socket",
                           "raw " + m[3].str() +
                               "() outside src/server/net/ bypasses the service's socket "
                               "helpers (framing, EINTR retries, SIGPIPE suppression); use "
                               "net::TcpConnect/SendAll/RecvChunk/WritevNonBlocking or "
                               "FramedConn"});
    }
    if (std::regex_search(line, m, kSocketOpcode)) {
      findings->push_back({std::string(path), static_cast<int>(i + 1), "raw-socket",
                           "io_uring socket opcode IORING_OP_" + m[1].str() +
                               " outside src/server/net/; socket I/O goes through the "
                               "net:: helpers there"});
    }
  }
}

}  // namespace

std::vector<Finding> LintContent(std::string_view path, std::string_view content) {
  std::vector<Finding> findings;
  const bool is_header = EndsWith(path, ".h");
  const std::string stripped = StripCommentsAndStrings(content);
  const std::vector<std::string_view> raw_lines = SplitLines(content);
  const std::vector<std::string_view> stripped_lines = SplitLines(stripped);
  if (is_header) {
    CheckIncludeGuard(path, stripped_lines, &findings);
    CheckLockedRequires(path, stripped, &findings);
    CheckUsingNamespaceStd(path, stripped_lines, &findings);
  }
  CheckBannedCalls(path, stripped_lines, &findings);
  CheckVoidStatus(path, raw_lines, stripped_lines, &findings);
  CheckRenameSync(path, stripped_lines, &findings);
  CheckBufferPoolBypass(path, stripped_lines, &findings);
  CheckRawSocket(path, stripped_lines, &findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

std::vector<Finding> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "read-error", "cannot open file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LintContent(path, buf.str());
}

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

bool SkipDir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' || name.rfind("build", 0) == 0;
}

void Collect(const fs::path& p, std::vector<std::string>* files) {
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    for (fs::recursive_directory_iterator it(p, ec), end; it != end; it.increment(ec)) {
      if (it->is_directory(ec)) {
        if (SkipDir(it->path())) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (it->is_regular_file(ec) && IsSourceFile(it->path())) {
        files->push_back(it->path().generic_string());
      }
    }
  } else {
    files->push_back(p.generic_string());
  }
}

}  // namespace

int RunLint(const std::vector<std::string>& paths, const std::string& allowlist_path,
            std::ostream& out, std::ostream& err) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    Collect(p, &files);
  }
  if (files.empty()) {
    err << "gadget_lint: no source files under the given paths\n";
    return 2;
  }
  std::sort(files.begin(), files.end());

  Allowlist allowlist;
  if (!allowlist_path.empty()) {
    std::ifstream in(allowlist_path);
    if (!in) {
      err << "gadget_lint: cannot open allowlist " << allowlist_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    allowlist = Allowlist::Parse(buf.str());
  }

  // Read every file once: the per-file rules and the cross-TU pass share the
  // same contents.
  std::vector<Finding> findings;
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      findings.push_back({file, 0, "read-error", "cannot open file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    SourceFile sf{file, buf.str()};
    for (Finding& f : LintContent(sf.path, sf.content)) {
      findings.push_back(std::move(f));
    }
    sources.push_back(std::move(sf));
  }
  for (Finding& f : AnalyzeTree(sources)) {
    findings.push_back(std::move(f));
  }

  int total = 0;
  for (const Finding& f : findings) {
    if (allowlist.Allows(f.file, f.rule)) {
      continue;
    }
    out << FormatFinding(f) << "\n";
    ++total;
  }
  // An entry that suppressed nothing would silently mask the next regression
  // matching it; the allowlist must shrink when the code it excused improves.
  for (const Allowlist::Entry& e : allowlist.UnusedEntries()) {
    out << FormatFinding({allowlist_path, e.line, "stale-allowlist",
                          "entry '" + e.rule + " " + e.path_suffix +
                              "' suppressed nothing in this run; remove it"})
        << "\n";
    ++total;
  }
  if (total != 0) {
    err << "gadget_lint: " << total << " finding(s) in " << files.size() << " file(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace lint
}  // namespace gadget
