// Scene comparison for the replay tests: two sessions' views are equal
// when their ASCII and SVG renders match and every node and edge carries
// the same highlight, intensity and sublabel.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "render/scene.hpp"

namespace gmdf::test {

/// One line per node and edge: id, highlight, intensity in %a (exact),
/// and the node sublabel.
inline std::vector<std::string> animation_state(const render::Scene& scene) {
    std::vector<std::string> out;
    auto line = [&](const char* kind, std::uint64_t id, const render::Style& style,
                    const std::string& sublabel) {
        char intensity[40];
        std::snprintf(intensity, sizeof intensity, "%a", style.intensity);
        out.push_back(std::string(kind) + " " + std::to_string(id) +
                      (style.highlighted ? " lit " : " dark ") + intensity + " '" +
                      sublabel + "'");
    };
    for (const render::SceneNode& n : scene.nodes()) line("node", n.id, n.style, n.sublabel);
    for (const render::SceneEdge& e : scene.edges()) line("edge", e.id, e.style, "");
    return out;
}

inline void expect_same_view(core::DebugSession& a, core::DebugSession& b) {
    EXPECT_EQ(a.render_ascii(), b.render_ascii());
    EXPECT_EQ(a.render_svg(), b.render_svg());
    EXPECT_EQ(animation_state(a.scene()), animation_state(b.scene()));
}

} // namespace gmdf::test
