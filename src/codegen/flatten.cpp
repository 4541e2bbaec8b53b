#include "codegen/flatten.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "comdes/metamodel.hpp"

namespace gmdf::codegen {

namespace {

using comdes::FBKernel;
using comdes::FBPins;
using meta::MObject;
using meta::Model;
using meta::ObjectId;

std::uint64_t sub_static_cost(const SubProgram& p) {
    std::uint64_t c = 2 * (p.ext_in.size() + p.ext_out.size());
    for (const Step& s : p.steps) c += s.cost;
    return c;
}

/// Kernel wrapping a composite FB's inner network.
class CompositeKernel final : public FBKernel {
public:
    explicit CompositeKernel(SubProgram inner) : inner_(std::move(inner)) {
        cost_ = static_cast<std::uint32_t>(sub_static_cost(inner_)) + 8;
    }

    void reset() override { inner_.reset(); }

    void step(std::span<const double> in, std::span<double> out, double dt) override {
        inner_.run(in, out, dt);
    }

    [[nodiscard]] std::uint32_t cost_cycles() const override { return cost_; }

    void save_state(std::vector<double>& out) const override { inner_.save_state(out); }

    std::size_t load_state(std::span<const double> in) override {
        return inner_.load_state(in);
    }

private:
    SubProgram inner_;
    std::uint32_t cost_;
};

/// Kernel wrapping a modal FB: runs the network of the mode selected by
/// the selector pin (input 0); outputs of inactive modes hold.
class ModalKernel final : public FBKernel {
public:
    struct ModeEntry {
        std::int64_t value = 0;
        ObjectId id;
        SubProgram program;
    };

    ModalKernel(ObjectId modal_id, std::vector<ModeEntry> modes, std::size_t n_outputs,
                ProgramObserver* observer)
        : modal_id_(modal_id), modes_(std::move(modes)), n_outputs_(n_outputs),
          observer_(observer), held_(n_outputs, 0.0) {
        cost_ = 12;
        std::uint32_t worst = 0;
        for (const auto& m : modes_)
            worst = std::max(worst,
                             static_cast<std::uint32_t>(sub_static_cost(m.program)));
        cost_ += worst;
    }

    void reset() override {
        for (auto& m : modes_) m.program.reset();
        held_.assign(n_outputs_, 0.0);
        active_ = -1;
    }

    void step(std::span<const double> in, std::span<double> out, double dt) override {
        auto selector = static_cast<std::int64_t>(std::llround(in[0]));
        int which = -1;
        for (std::size_t i = 0; i < modes_.size(); ++i)
            if (modes_[i].value == selector) which = static_cast<int>(i);
        if (which >= 0) {
            if (which != active_) {
                active_ = which;
                if (observer_)
                    observer_->on_mode_change(modal_id_,
                                              modes_[static_cast<std::size_t>(which)].id);
            }
            // The mode program's ext indices address the modal FB's own
            // pin space, so pass the full spans; unmapped outputs hold.
            modes_[static_cast<std::size_t>(which)].program.run(in, held_, dt);
        }
        std::copy(held_.begin(), held_.end(), out.begin());
    }

    [[nodiscard]] std::uint32_t cost_cycles() const override { return cost_; }

    /// Active mode (-1: none yet), held outputs, then every mode's
    /// program, active or not: an inactive mode resumes where it left.
    void save_state(std::vector<double>& out) const override {
        out.push_back(static_cast<double>(active_));
        out.insert(out.end(), held_.begin(), held_.end());
        for (const auto& m : modes_) m.program.save_state(out);
    }

    std::size_t load_state(std::span<const double> in) override {
        std::size_t used = 1 + n_outputs_;
        if (in.size() < used) throw std::runtime_error("kernel state truncated");
        if (!(in[0] >= -1.0 && in[0] < static_cast<double>(modes_.size())))
            throw std::runtime_error("modal FB mode out of range");
        active_ = static_cast<int>(in[0]);
        held_.assign(in.begin() + 1, in.begin() + static_cast<std::ptrdiff_t>(used));
        for (auto& m : modes_) used += m.program.load_state(in.subspan(used));
        return used;
    }

private:
    ObjectId modal_id_;
    std::vector<ModeEntry> modes_;
    std::size_t n_outputs_;
    ProgramObserver* observer_;
    std::uint32_t cost_ = 0;
    std::vector<double> held_; ///< n_outputs_ values
    int active_ = -1;
};

struct BlockInfo {
    const MObject* obj = nullptr;
    FBPins pins;
    std::vector<int> out_slots; ///< slot per output pin
    std::vector<int> in_slots;  ///< slot per input pin (-1 until wired)
    bool is_delay = false;
};

[[noreturn]] void fail(const std::string& msg) { throw std::invalid_argument(msg); }

} // namespace

SubProgram flatten_network(const Model& model, const MObject& network,
                           std::span<const ExtBinding> inputs,
                           std::span<const ExtBinding> outputs, ProgramObserver* observer) {
    const auto& c = comdes::comdes_metamodel();
    SubProgram prog;

    // 1. Collect blocks, assign output-net slots.
    std::vector<BlockInfo> blocks;
    std::map<std::string, std::size_t> by_name;
    int next_slot = 0;
    for (ObjectId b_id : network.refs("blocks")) {
        const MObject& b = model.at(b_id);
        BlockInfo info;
        info.obj = &b;
        info.pins = comdes::pins_of(model, b);
        info.in_slots.assign(info.pins.inputs.size(), -1);
        for (std::size_t i = 0; i < info.pins.outputs.size(); ++i)
            info.out_slots.push_back(next_slot++);
        info.is_delay = b.meta_class().is_subtype_of(*c.basic_fb) &&
                        b.attr("kind").as_string() == "delay_";
        if (by_name.contains(b.name()))
            fail("duplicate block name '" + b.name() + "' in network");
        by_name[b.name()] = blocks.size();
        blocks.push_back(std::move(info));
    }

    auto block_index = [&](const std::string& name, const char* what) -> std::size_t {
        auto it = by_name.find(name);
        if (it == by_name.end())
            fail(std::string(what) + ": unknown block '" + name + "'");
        return it->second;
    };

    // 2. Wire connections: input pin -> driving output net.
    std::map<std::size_t, std::set<std::size_t>> edges; // producer -> consumers
    for (ObjectId conn_id : network.refs("connections")) {
        const MObject& conn = model.at(conn_id);
        const MObject& from = model.at(conn.ref("from"));
        const MObject& to = model.at(conn.ref("to"));
        std::size_t fi = block_index(from.name(), "connection");
        std::size_t ti = block_index(to.name(), "connection");
        int fp = blocks[fi].pins.output_index(conn.attr("from_pin").as_string());
        int tp = blocks[ti].pins.input_index(conn.attr("to_pin").as_string());
        if (fp < 0) fail("connection: no output pin '" + conn.attr("from_pin").as_string() +
                         "' on '" + from.name() + "'");
        if (tp < 0) fail("connection: no input pin '" + conn.attr("to_pin").as_string() +
                         "' on '" + to.name() + "'");
        if (blocks[ti].in_slots[static_cast<std::size_t>(tp)] != -1)
            fail("input '" + to.name() + "." + conn.attr("to_pin").as_string() +
                 "' driven twice");
        blocks[ti].in_slots[static_cast<std::size_t>(tp)] =
            blocks[fi].out_slots[static_cast<std::size_t>(fp)];
        if (!blocks[fi].is_delay) edges[fi].insert(ti);
    }

    // 3. External inputs get fresh slots copied in before the scan.
    for (const ExtBinding& b : inputs) {
        std::size_t bi = block_index(b.fb, "external input");
        int pin = blocks[bi].pins.input_index(b.pin);
        if (pin < 0) fail("external input: no input pin '" + b.pin + "' on '" + b.fb + "'");
        if (blocks[bi].in_slots[static_cast<std::size_t>(pin)] != -1)
            fail("input '" + b.fb + "." + b.pin + "' both bound and connected");
        int slot = next_slot++;
        blocks[bi].in_slots[static_cast<std::size_t>(pin)] = slot;
        prog.ext_in.emplace_back(b.ext_index, slot);
    }

    // 4. Kernels (recursing into composite/modal blocks).
    std::vector<std::size_t> kernel_of(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const MObject& b = *blocks[i].obj;
        std::unique_ptr<FBKernel> kernel;
        if (b.meta_class().is_subtype_of(*c.basic_fb)) {
            kernel = comdes::make_basic_kernel(b);
        } else if (b.meta_class().is_subtype_of(*c.sm_fb)) {
            kernel = comdes::make_sm_kernel(model, b, observer);
        } else if (b.meta_class().is_subtype_of(*c.composite_fb)) {
            // Port maps address the composite's pin space.
            std::vector<ExtBinding> inner_in, inner_out;
            for (ObjectId pm_id : b.refs("port_maps")) {
                const MObject& pm = model.at(pm_id);
                ExtBinding eb{pm.attr("inner_fb").as_string(), pm.attr("inner_pin").as_string(),
                              0};
                const std::string& outer = pm.attr("outer_pin").as_string();
                if (pm.attr("direction").as_string() == "in") {
                    eb.ext_index = blocks[i].pins.input_index(outer);
                    inner_in.push_back(std::move(eb));
                } else {
                    eb.ext_index = blocks[i].pins.output_index(outer);
                    inner_out.push_back(std::move(eb));
                }
            }
            kernel = std::make_unique<CompositeKernel>(flatten_network(
                model, model.at(b.ref("network")), inner_in, inner_out, observer));
        } else if (b.meta_class().is_subtype_of(*c.modal_fb)) {
            std::vector<ModalKernel::ModeEntry> modes;
            for (ObjectId m_id : b.refs("modes")) {
                const MObject& mode = model.at(m_id);
                std::vector<ExtBinding> inner_in, inner_out;
                for (ObjectId pm_id : mode.refs("port_maps")) {
                    const MObject& pm = model.at(pm_id);
                    ExtBinding eb{pm.attr("inner_fb").as_string(),
                                  pm.attr("inner_pin").as_string(), 0};
                    const std::string& outer = pm.attr("outer_pin").as_string();
                    if (pm.attr("direction").as_string() == "in") {
                        eb.ext_index = blocks[i].pins.input_index(outer);
                        inner_in.push_back(std::move(eb));
                    } else {
                        eb.ext_index = blocks[i].pins.output_index(outer);
                        inner_out.push_back(std::move(eb));
                    }
                }
                modes.push_back({mode.attr("value").as_int(), m_id,
                                 flatten_network(model, model.at(mode.ref("network")),
                                                 inner_in, inner_out, observer)});
            }
            kernel = std::make_unique<ModalKernel>(b.id(), std::move(modes),
                                                   blocks[i].pins.outputs.size(), observer);
        } else {
            fail("unsupported block class " + b.meta_class().name());
        }
        kernel_of[i] = prog.kernels.size();
        prog.kernels.push_back(std::move(kernel));
    }

    // 5. Topological step order (Kahn, stable by declaration order).
    std::vector<int> indegree(blocks.size(), 0);
    for (const auto& [from, tos] : edges)
        for (std::size_t to : tos) ++indegree[to];
    std::vector<std::size_t> order;
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (indegree[i] == 0) frontier.push_back(i);
    while (!frontier.empty()) {
        std::size_t cur = frontier.front();
        frontier.erase(frontier.begin());
        order.push_back(cur);
        for (std::size_t next : edges[cur])
            if (--indegree[next] == 0) frontier.push_back(next);
    }
    if (order.size() != blocks.size()) fail("combinational cycle in dataflow network");

    for (std::size_t i : order) {
        Step s;
        s.kernel_index = kernel_of[i];
        s.in_slots = blocks[i].in_slots;
        s.out_slots = blocks[i].out_slots;
        s.source = blocks[i].obj->id();
        s.cost = prog.kernels[s.kernel_index]->cost_cycles();
        prog.steps.push_back(std::move(s));
    }

    // 6. External outputs.
    for (const ExtBinding& b : outputs) {
        std::size_t bi = block_index(b.fb, "external output");
        int pin = blocks[bi].pins.output_index(b.pin);
        if (pin < 0) fail("external output: no output pin '" + b.pin + "' on '" + b.fb + "'");
        prog.ext_out.emplace_back(blocks[bi].out_slots[static_cast<std::size_t>(pin)],
                                  b.ext_index);
    }

    prog.n_slots = next_slot;
    return prog;
}

SubProgram flatten_actor(const Model& model, const MObject& actor, ProgramObserver* observer) {
    std::vector<ExtBinding> inputs, outputs;
    int idx = 0;
    for (ObjectId b_id : actor.refs("inputs")) {
        const MObject& b = model.at(b_id);
        inputs.push_back({b.attr("fb").as_string(), b.attr("pin").as_string(), idx++});
    }
    idx = 0;
    for (ObjectId b_id : actor.refs("outputs")) {
        const MObject& b = model.at(b_id);
        outputs.push_back({b.attr("fb").as_string(), b.attr("pin").as_string(), idx++});
    }
    return flatten_network(model, model.at(actor.ref("network")), inputs, outputs, observer);
}

std::uint64_t static_cost(const SubProgram& p) { return sub_static_cost(p); }

} // namespace gmdf::codegen
