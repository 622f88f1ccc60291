"""Exhaustive independent-set families, coverage caps, and sparse members.

The family machinery answers: how evenly do the near-maximal independent
sets spread over vertex pairs, and given adversarial pairs, can we find a
member that dodges them? The cap deletes every set through any over-covered
pair (judged on the initial snapshot), and the sparse selector then picks
the member with the fewest adversarial pairs inside.
"""

from chromres import (
    GnpParams,
    build_profile,
    enumerate_isets,
    generate_gnp,
    max_independent_set,
    random_budget,
    sparse_iset,
    uniform_family,
)

g = generate_gnp(GnpParams(n=40, p=0.5, seed=3))
profile = build_profile(40, 0.5, theta=1.0)
k = profile.k0
print(f"n=40, p=0.5: k0={k}, mu={profile.mu:.2f}, alpha={len(max_independent_set(g))}")

fam = enumerate_isets(g, k)
hist = fam.coverage_histogram()
print(f"all size-{k} independent sets: {len(fam)} (expected {profile.mu:.2f})")
print("pair-coverage histogram:", dict(sorted(hist.items())))

# cap = 4*mu0 is the analytic choice; at this scale it sits below 1, so the
# deletion removes everything covered at all. The family is also heavily
# nested (here one pair lies in every member), so even generous caps stay
# empty until the cap reaches the worst coverage.
worst = max(hist)
for cap in (4 * profile.mu0, 2, worst - 1, worst):
    capped = uniform_family(fam, cap)
    print(f"cap={cap:6.3f}: retained {len(capped):4d}, deleted {capped.deleted:4d},"
          f" excess mass {capped.excess_mass}")

# sparse member against a random 20-pair budget: the returned count is the
# family minimum, necessarily <= the family mean
e = random_budget(g, 20, seed=9)
chosen, inside = sparse_iset(fam, e)
per_member = [sum(1 for u, v in e.pairs if u in s and v in s) for s in fam.sets]
print(f"\nbudget of {e.m} pairs: sparse member carries {inside}, "
      f"family mean {sum(per_member) / len(per_member):.2f}, max {max(per_member)}")
print("chosen set:", chosen)
