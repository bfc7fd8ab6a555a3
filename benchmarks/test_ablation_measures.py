"""E-X1 (ours): measure ablations the paper calls out but does not plot.

1. LCC variants — the implemented attribute-Jaccard reading vs the
   literal Eq. 1 value-neighbor Jaccard (DESIGN.md §1).  Run on a
   reduced SB because the literal variant is quadratic in |N(u)|.
2. BC endpoint modes — all nodes (paper default) vs value nodes only
   (footnote 2).  The paper found all-endpoints empirically better.
"""

from conftest import write_result

from repro import HomographIndex
from repro.bench.synthetic import SBConfig, generate_sb


def hits_at(result, homographs, k=55):
    return sum(1 for v in result.top_values(k) if v in homographs)


def test_ablation_lcc_variants(benchmark, results_dir):
    sb = generate_sb(SBConfig(rows=250, seed=0))
    index = HomographIndex(sb.lake)

    def run_both():
        attr = index.detect(measure="lcc", lcc_variant="attribute-jaccard")
        literal = index.detect(measure="lcc", lcc_variant="value-neighbors")
        return attr, literal

    attr, literal = benchmark.pedantic(run_both, rounds=1, iterations=1)
    attr_hits = hits_at(attr, sb.homographs)
    literal_hits = hits_at(literal, sb.homographs)
    text = (
        "LCC variant ablation (reduced SB, top-55 homograph hits)\n"
        f"  attribute-jaccard (paper's implementation): {attr_hits}/55 "
        f"in {attr.measure_seconds:.1f}s\n"
        f"  value-neighbors (literal Eq. 1)           : {literal_hits}/55 "
        f"in {literal.measure_seconds:.1f}s"
    )
    write_result(results_dir, "ablation_lcc_variants", text)

    # The variants trade places on small lakes; the stable facts are
    # that both detect a substantial share and the literal variant
    # pays a steep computational price (its cost is what motivates the
    # paper's attribute-set implementation).
    assert literal.measure_seconds > attr.measure_seconds
    assert attr_hits >= 15
    assert literal_hits >= 15


def test_ablation_bc_endpoints(benchmark, sb, results_dir):
    index = HomographIndex(sb.lake)

    def run_both():
        all_nodes = index.detect(measure="betweenness", endpoints="all")
        values_only = index.detect(
            measure="betweenness", endpoints="values"
        )
        return all_nodes, values_only

    all_nodes, values_only = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    all_hits = hits_at(all_nodes, sb.homographs)
    value_hits = hits_at(values_only, sb.homographs)
    text = (
        "BC endpoint ablation (SB, top-55 homograph hits)\n"
        f"  endpoints=all (paper default): {all_hits}/55\n"
        f"  endpoints=values (footnote 2): {value_hits}/55"
    )
    write_result(results_dir, "ablation_bc_endpoints", text)

    # Paper footnote 2: all-endpoints gave the best empirical results.
    assert all_hits >= value_hits - 3
    assert all_hits >= 30
