// propeller_analyze — repo-invariant static analysis (see analyze.h).
//
// Usage:
//   propeller_analyze [--root DIR] [--src DIR] [--pass NAME]...
//                     [--design FILE] [--lock-test FILE] [--verbose] [--list]
//
// Defaults assume invocation from the repo root: --src src,
// --design DESIGN.md, --lock-test tests/lock_rank_test.cc.  Exit code 0 iff no fatal
// findings (notes never fail the run).
#include "analyze.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: propeller_analyze [options]\n"
      "  --root DIR       repo root (prefixes every default path)\n"
      "  --src DIR        source tree to scan (default: src)\n"
      "  --pass NAME      run one pass (locks|determinism); repeatable;\n"
      "                   default: both\n"
      "  --design FILE    DESIGN.md for the rank-table cross-check\n"
      "  --lock-test FILE lock_rank_test.cc for edge-coverage notes\n"
      "  --verbose        print the reconstructed rank table and edges\n"
      "  --list           list passes and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace propeller::analyze;
  Options opt;
  std::string root;
  std::vector<std::string> passes;
  bool design_set = false, lock_test_set = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next();
    } else if (arg == "--src") {
      opt.src_dir = next();
    } else if (arg == "--pass") {
      passes.push_back(next());
    } else if (arg == "--design") {
      opt.design = next();
      design_set = true;
    } else if (arg == "--lock-test") {
      opt.lock_test = next();
      lock_test_set = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--list") {
      std::printf("locks        rank table + static acquisition order\n");
      std::printf("determinism  wall-clock/rand/unordered-iteration bans\n");
      return 0;
    } else {
      Usage();
      return 2;
    }
  }
  if (!root.empty() && root.back() != '/') root += '/';
  if (opt.src_dir.find('/') != 0) opt.src_dir = root + opt.src_dir;
  if (!design_set) opt.design = root + "DESIGN.md";
  if (!lock_test_set) opt.lock_test = root + "tests/lock_rank_test.cc";
  if (passes.empty()) passes = {"locks", "determinism"};

  std::vector<std::string> paths = ListSources(opt.src_dir);
  if (paths.empty()) {
    std::fprintf(stderr, "propeller_analyze: no sources under %s\n",
                 opt.src_dir.c_str());
    return 2;
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) files.push_back(LoadSource(p));

  std::vector<Finding> findings;
  for (const std::string& pass : passes) {
    if (pass == "locks") {
      RunLockOrderPass(opt, files, &findings);
    } else if (pass == "determinism") {
      RunDeterminismPass(opt, files, &findings);
    } else {
      std::fprintf(stderr, "propeller_analyze: unknown pass '%s'\n",
                   pass.c_str());
      return 2;
    }
  }

  int fatal = 0;
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s]%s %s\n", f.file.c_str(), f.line,
                 f.pass.c_str(), f.fatal ? "" : " note:", f.message.c_str());
    if (f.fatal) ++fatal;
  }
  if (fatal != 0) {
    std::fprintf(stderr, "propeller_analyze: %d finding(s)\n", fatal);
    return 1;
  }
  if (opt.verbose) {
    std::fprintf(stderr, "propeller_analyze: clean (%zu files, %zu passes)\n",
                 files.size(), passes.size());
  }
  return 0;
}
