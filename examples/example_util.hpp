// Shared helpers for the example applications: machine selection by name
// (any zoo model, or the real host via the native backend).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/cli.hpp"
#include "msg/network.hpp"
#include "msg/sim_network.hpp"
#include "msg/thread_network.hpp"
#include "platform/native_platform.hpp"
#include "platform/platform.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet::examples {

struct Target {
    std::unique_ptr<Platform> platform;
    std::unique_ptr<msg::Network> network;
};

/// `--machine`: "native" (measure this host) or any model of the zoo
/// catalog; parse() refuses every other name.
inline void add_machine_option(CliParser& cli) {
    std::vector<std::string> names{"native"};
    for (const sim::zoo::Entry& entry : sim::zoo::catalog()) names.emplace_back(entry.name);
    cli.add_choice("machine", "target (see 'servet machines')", "dunnington", std::move(names));
}

/// The platform + network for a name add_machine_option accepted. Only a
/// multicore target gets a network.
inline Target make_target(const std::string& name) {
    Target target;
    if (name == "native") {
        auto platform = std::make_unique<NativePlatform>();
        target.network = std::make_unique<msg::ThreadNetwork>(platform->core_count());
        target.platform = std::move(platform);
        return target;
    }
    const auto catalog = sim::zoo::catalog();
    const auto entry = std::find_if(catalog.begin(), catalog.end(),
                                    [&](const sim::zoo::Entry& e) { return name == e.name; });
    SERVET_CHECK_MSG(entry != catalog.end(), "machine name was not checked by the CLI");
    auto platform = std::make_unique<SimPlatform>(entry->build());
    if (platform->spec().n_cores > 1)
        target.network = std::make_unique<msg::SimNetwork>(platform->spec());
    target.platform = std::move(platform);
    return target;
}

}  // namespace servet::examples
