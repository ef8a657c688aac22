#include "driver/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace icsim::driver {

Group& Registry::group(const std::string& name, const std::string& title) {
  for (auto& g : groups_) {
    if (g.name == name) {
      if (g.title.empty()) g.title = title;
      return g;
    }
  }
  groups_.push_back(Group{name, title, nullptr});
  return groups_.back();
}

void Registry::add(const std::string& group_name, std::string name,
                   std::function<PointResult()> run) {
  group(group_name);
  scenarios_.push_back(Scenario{group_name, std::move(name), std::move(run)});
}

bool Registry::has_group(const std::string& name) const {
  for (const auto& g : groups_) {
    if (g.name == name) return true;
  }
  return false;
}

std::vector<std::size_t> Registry::select(
    const std::vector<std::string>& names) const {
  // A selected group that registered nothing (e.g. replay run where no
  // trace sets are found) must fail loudly, not report "0 points".
  for (const auto& g : groups_) {
    const bool selected =
        names.empty() ||
        std::find(names.begin(), names.end(), g.name) != names.end();
    const bool has_points =
        std::any_of(scenarios_.begin(), scenarios_.end(),
                    [&](const Scenario& s) { return s.group == g.name; });
    if (selected && !has_points) {
      throw std::invalid_argument("scenario group '" + g.name +
                                  "' has no points: " + g.title);
    }
  }
  if (names.empty()) {
    std::vector<std::size_t> all(scenarios_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  for (const auto& n : names) {
    if (!has_group(n)) {
      std::string known;
      for (const auto& g : groups_) {
        if (!known.empty()) known += ", ";
        known += g.name;
      }
      throw std::invalid_argument("unknown scenario group '" + n +
                                  "' (registered: " + known + ")");
    }
  }
  // Registry order, not command-line order: the output must not depend on
  // how the caller spelled the selection.
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    for (const auto& n : names) {
      if (scenarios_[i].group == n) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace icsim::driver
