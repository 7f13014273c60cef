"""The link corpus the tests run the state sums and embeddings on.

Each entry names a nested chain of ribbons on a genus-0 or genus-1
surface at one level, in abstract form and embedded by
statesum.embed_link.  chain builds such a link from (color, winding,
orientation) triples, ribbon j inside ribbon j - 1.
"""

from dataclasses import dataclass

from shadow_wlo.statesum import ColoredRibbon, RibbonLink, embed_link


@dataclass(frozen=True)
class CorpusEntry:
    """One test link: name, algebra series, level, both forms."""

    name: str
    series: str
    level: int
    link: RibbonLink
    embedded: RibbonLink


def chain(genus, specs):
    ribbons = tuple(
        ColoredRibbon(tuple(color), winding, orientation, parent)
        for parent, (color, winding, orientation)
        in enumerate(specs))
    return RibbonLink(genus, ribbons)


_CORPUS_SPECS = (
    ("a1_g0_empty_k2", "A1", 2, 0, ()),
    ("a1_g0_empty_k4", "A1", 4, 0, ()),
    ("a1_g0_empty_k6", "A1", 6, 0, ()),
    ("a1_g0_one_k4", "A1", 4, 0, (((1,), 1, 1),)),
    ("a1_g0_one_heavy_k3", "A1", 3, 0, (((2,), -2, -1),)),
    ("a1_g0_one_top_k6", "A1", 6, 0, (((3,), 2, 1),)),
    ("a1_g0_one_flat_k4", "A1", 4, 0, (((2,), 0, 1),)),
    ("a1_g0_two_k5", "A1", 5, 0, (((1,), 1, 1), ((2,), -1, -1))),
    ("a1_g0_three_k4", "A1", 4, 0,
     (((1,), 2, 1), ((1,), -2, -1), ((2,), 1, 1))),
    ("a1_g0_three_k6", "A1", 6, 0,
     (((2,), 1, -1), ((1,), 1, 1), ((3,), -1, 1))),
    ("a2_g0_one_k4", "A2", 4, 0, (((1, 0), 1, 1),)),
    ("a2_g0_one_low_k3", "A2", 3, 0, (((0, 1), 1, 1),)),
    ("a2_g0_one_adj_k5", "A2", 5, 0, (((1, 1), -2, -1),)),
    ("a2_g0_two_k6", "A2", 6, 0, (((1, 0), 2, 1), ((0, 2), 1, -1))),
    ("a2_g0_three_k7", "A2", 7, 0,
     (((1, 0), 1, 1), ((0, 1), -1, -1), ((2, 1), 2, 1))),
    ("a1_g1_empty_k3", "A1", 3, 1, ()),
    ("a1_g1_one_k4", "A1", 4, 1, (((1,), 1, 1),)),
    ("a1_g1_one_k5", "A1", 5, 1, (((2,), 1, 1),)),
    ("a1_g1_two_k5", "A1", 5, 1, (((2,), 1, 1), ((2,), -2, -1))),
    ("a2_g1_empty_k4", "A2", 4, 1, ()),
    ("a2_g1_one_k5", "A2", 5, 1, (((0, 1), -1, -1),)),
    ("a2_g1_two_k6", "A2", 6, 1, (((1, 0), 2, 1), ((1, 0), -2, 1))),
)


def corpus_links():
    """The link corpus, each entry in abstract and embedded form.

    Covers zero to three nested ribbons, windings from -2 to 2, colors up
    to three levels, both algebra series, genus zero and one, and levels
    from the dual Coxeter number to four above it.
    """
    out = []
    for name, series, level, genus, specs in _CORPUS_SPECS:
        link = chain(genus, specs)
        out.append(CorpusEntry(name, series, level, link, embed_link(link)))
    return tuple(out)
