// propeller_analyze — repo-invariant static analysis (see analyze.h).
//
// Usage:
//   propeller_analyze [--root DIR] [--src DIR]
//
// Scans --src (default: src, under --root when relative).  Exit code 0 iff
// there are no findings.
#include "analyze.h"

#include <cstdio>
#include <string>
#include <vector>

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: propeller_analyze [options]\n"
               "  --root DIR  repo root (prefixes a relative --src)\n"
               "  --src DIR   source tree to scan (default: src)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace propeller::analyze;
  std::string root;
  std::string src_dir = "src";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    if (arg == "--root") {
      root = argv[++i];
    } else if (arg == "--src") {
      src_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!root.empty() && root.back() != '/') root += '/';
  if (src_dir.find('/') != 0) src_dir = root + src_dir;

  std::vector<std::string> paths = ListSources(src_dir);
  if (paths.empty()) {
    std::fprintf(stderr, "propeller_analyze: no sources under %s\n",
                 src_dir.c_str());
    return 2;
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) files.push_back(LoadSource(p));

  std::vector<Finding> findings;
  RunDeterminismPass(files, &findings);
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.pass.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "propeller_analyze: %zu finding(s)\n",
                 findings.size());
    return 1;
  }
  return 0;
}
