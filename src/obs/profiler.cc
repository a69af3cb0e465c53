#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace tsfm::obs {

namespace {

// Mutable aggregation state per stack path, finalized into ProfileNode.
struct NodeBuild {
  std::string name;
  std::string path;
  int depth = 0;
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t child_ns = 0;
  std::vector<int64_t> durations;
};

int64_t PercentileOf(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(pos + 0.5)];
}

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatUs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(ns) / 1e3);
  return buf;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

Profile Profile::FromEvents(const std::vector<TraceEvent>& events) {
  // Group event indices per tid; nesting only exists within one thread.
  std::map<int, std::vector<size_t>> by_tid;
  for (size_t i = 0; i < events.size(); ++i) {
    by_tid[events[i].tid].push_back(i);
  }

  std::map<std::string, NodeBuild> builds;
  for (auto& [tid, idx] : by_tid) {
    (void)tid;
    // Parents sort before their children: earlier start first, and on equal
    // starts the longer (enclosing) span first.
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (events[a].start_ns != events[b].start_ns) {
        return events[a].start_ns < events[b].start_ns;
      }
      return events[a].dur_ns > events[b].dur_ns;
    });

    struct Open {
      int64_t end_ns;
      std::string path;
    };
    std::vector<Open> stack;
    for (size_t i : idx) {
      const TraceEvent& e = events[i];
      const int64_t end_ns = e.start_ns + e.dur_ns;
      // Pop spans that closed before this one opened; what remains encloses
      // it. A span starting exactly when the previous one ends is a sibling.
      while (!stack.empty() && e.start_ns >= stack.back().end_ns) {
        stack.pop_back();
      }
      const std::string* parent = stack.empty() ? nullptr : &stack.back().path;
      std::string path =
          parent == nullptr ? std::string(e.name) : *parent + ";" + e.name;

      NodeBuild& node = builds[path];
      if (node.calls == 0) {
        node.name = e.name;
        node.path = path;
        node.depth = static_cast<int>(stack.size());
      }
      ++node.calls;
      node.total_ns += e.dur_ns;
      node.durations.push_back(e.dur_ns);
      if (parent != nullptr) builds[*parent].child_ns += e.dur_ns;
      stack.push_back(Open{end_ns, std::move(path)});
    }
  }

  // Finalize. `builds` is keyed by path, and ';' sorts before every
  // printable character used in span names, so map order is already
  // depth-first (parents precede children). Reorder siblings by total time
  // with an explicit DFS for readable output.
  std::map<std::string, std::vector<const NodeBuild*>> children;
  std::vector<const NodeBuild*> roots;
  for (auto& [path, b] : builds) {
    const size_t cut = path.rfind(';');
    if (cut == std::string::npos) {
      roots.push_back(&b);
    } else {
      children[path.substr(0, cut)].push_back(&b);
    }
  }
  auto by_total = [](const NodeBuild* a, const NodeBuild* b) {
    return a->total_ns > b->total_ns;
  };
  std::sort(roots.begin(), roots.end(), by_total);
  for (auto& [path, kids] : children) {
    (void)path;
    std::sort(kids.begin(), kids.end(), by_total);
  }

  Profile profile;
  profile.nodes_.reserve(builds.size());
  std::vector<const NodeBuild*> dfs(roots.rbegin(), roots.rend());
  while (!dfs.empty()) {
    const NodeBuild* b = dfs.back();
    dfs.pop_back();
    ProfileNode n;
    n.name = b->name;
    n.path = b->path;
    n.depth = b->depth;
    n.calls = b->calls;
    n.total_ns = b->total_ns;
    n.self_ns = std::max<int64_t>(0, b->total_ns - b->child_ns);
    std::vector<int64_t> sorted = b->durations;
    std::sort(sorted.begin(), sorted.end());
    n.min_ns = sorted.front();
    n.max_ns = sorted.back();
    n.p50_ns = PercentileOf(sorted, 0.5);
    n.p99_ns = PercentileOf(sorted, 0.99);
    profile.nodes_.push_back(std::move(n));
    auto it = children.find(b->path);
    if (it != children.end()) {
      for (auto kid = it->second.rbegin(); kid != it->second.rend(); ++kid) {
        dfs.push_back(*kid);
      }
    }
  }
  return profile;
}

Profile Profile::FromCurrentTrace() { return FromEvents(TraceSnapshot()); }

std::vector<ProfileNode> Profile::TopByTotal(int n) const {
  // Roll up by span name: the same op reached through different stacks (or
  // threads) is one line. Only root-relative totals are meaningful per node,
  // so sum total/self/calls and take the widest extrema.
  std::map<std::string, ProfileNode> by_name;
  for (const ProfileNode& node : nodes_) {
    ProfileNode& agg = by_name[node.name];
    if (agg.calls == 0) {
      agg = node;
      agg.path = node.name;
      agg.depth = 0;
    } else {
      agg.calls += node.calls;
      agg.total_ns += node.total_ns;
      agg.self_ns += node.self_ns;
      agg.min_ns = std::min(agg.min_ns, node.min_ns);
      agg.max_ns = std::max(agg.max_ns, node.max_ns);
    }
  }
  std::vector<ProfileNode> out;
  out.reserve(by_name.size());
  for (auto& [name, node] : by_name) {
    (void)name;
    out.push_back(std::move(node));
  }
  std::sort(out.begin(), out.end(), [](const ProfileNode& a,
                                       const ProfileNode& b) {
    return a.total_ns > b.total_ns;
  });
  if (n >= 0 && out.size() > static_cast<size_t>(n)) out.resize(n);
  return out;
}

std::string Profile::RenderText() const {
  std::ostringstream os;
  os << "  calls    total_ms     self_ms      min_us      p50_us      p99_us"
        "      max_us  span\n";
  for (const ProfileNode& n : nodes_) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "%7lld %11s %11s %11s %11s %11s %11s  ",
                  static_cast<long long>(n.calls), FormatMs(n.total_ns).c_str(),
                  FormatMs(n.self_ns).c_str(), FormatUs(n.min_ns).c_str(),
                  FormatUs(n.p50_ns).c_str(), FormatUs(n.p99_ns).c_str(),
                  FormatUs(n.max_ns).c_str());
    os << row;
    for (int i = 0; i < n.depth; ++i) os << "  ";
    os << n.name << "\n";
  }
  return os.str();
}

std::string Profile::RenderJson() const {
  std::string out = "{\"profile\":[";
  bool first = true;
  for (const ProfileNode& n : nodes_) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"path\":\"";
    AppendJsonEscaped(&out, n.path);
    out += "\",\"name\":\"";
    AppendJsonEscaped(&out, n.name);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\",\"depth\":%d,\"calls\":%lld,\"total_ns\":%lld,"
                  "\"self_ns\":%lld,\"min_ns\":%lld,\"p50_ns\":%lld,"
                  "\"p99_ns\":%lld,\"max_ns\":%lld}",
                  n.depth, static_cast<long long>(n.calls),
                  static_cast<long long>(n.total_ns),
                  static_cast<long long>(n.self_ns),
                  static_cast<long long>(n.min_ns),
                  static_cast<long long>(n.p50_ns),
                  static_cast<long long>(n.p99_ns),
                  static_cast<long long>(n.max_ns));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string Profile::RenderCollapsed() const {
  std::ostringstream os;
  for (const ProfileNode& n : nodes_) {
    const int64_t self_us = n.self_ns / 1000;
    if (self_us <= 0) continue;
    os << n.path << " " << self_us << "\n";
  }
  return os.str();
}

bool WriteProfile(const Profile& profile, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  auto ends_with = [&](const char* suffix) {
    const size_t len = std::string(suffix).size();
    return path.size() >= len && path.compare(path.size() - len, len,
                                              suffix) == 0;
  };
  if (ends_with(".json")) {
    os << profile.RenderJson();
  } else if (ends_with(".folded")) {
    os << profile.RenderCollapsed();
  } else {
    os << profile.RenderText();
  }
  return static_cast<bool>(os);
}

namespace {

std::string& ProfileExitPath() {
  static std::string* path = new std::string();  // leaked: used at exit
  return *path;
}

void WriteProfileAtExit() {
  const std::string& path = ProfileExitPath();
  if (path.empty()) return;
  if (!WriteProfile(Profile::FromCurrentTrace(), path)) {
    std::fprintf(stderr, "profile: cannot write %s\n", path.c_str());
  }
}

}  // namespace

namespace internal {

void ArmProfileAtExit(const std::string& path) {
  static bool armed = false;
  if (armed || path.empty()) return;
  armed = true;
  ProfileExitPath() = path;
  std::atexit(WriteProfileAtExit);
}

}  // namespace internal

}  // namespace tsfm::obs
