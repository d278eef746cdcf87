"""The documented CLI examples: the byte-stability and schema contract.

Each entry is (name, argv, schema attribute in fibrelab.schemas, format).
``scripts/regen_golden.py`` freezes their stdout under tests/golden/; the
CLI tests replay them and compare bytes.
"""

DEMO_F0 = '["-1","0","0","0","0","0","1"]'
DEMO_F1 = '["0","-1","0","0","0","0","1"]'

EXAMPLES = [
    ("construct", ["construct", "--genus", "2", "--nodes", "1", "--seed", "7"],
     "MODEL", "json"),
    ("construct_split", ["construct", "--genus", "3", "--kind", "split", "--seed", "2"],
     "MODEL", "json"),
    ("classify_smooth", ["classify", "--genus", "2", "--f", DEMO_F0],
     "FIBRE_CLASS", "json"),
    ("pencil_demo", ["pencil", "--genus", "2", "--f0", DEMO_F0, "--f1", DEMO_F1],
     "PENCIL_RUN", "json"),
    ("pencil_node_at_infinity",  # the member at lam = -1 has degree 4: a node at x = oo
     ["pencil", "--genus", "2", "--f0", '["0","-144","324","-260","95","-16","1"]',
      "--f1", '["-30","-349","607","-531","189","-32","2"]'],
     "PENCIL_RUN", "json"),
    ("systems_severi", ["systems", "--surface", "P1xP1", "--query", "severi",
                        "--a", "2", "--b", "3", "--nodes", "0"],
     "SYSTEMS", "json"),
    ("systems_hirzebruch_genus", ["systems", "--surface", "F_e", "--e", "3",
                                  "--query", "genus", "--a", "2", "--b", "6"],
     "SYSTEMS", "json"),
    ("systems_delpezzo", ["systems", "--surface", "DelPezzo1",
                          "--query", "anticanonical-dim", "--r", "2"],
     "SYSTEMS", "json"),
    ("systems_bidegree", ["systems", "--surface", "P1xP1",
                          "--query", "hyperelliptic-bidegree", "--genus", "5"],
     "SYSTEMS", "json"),
    ("invariants_noether", ["invariants", "noether-complete", "--k2", "9", "--e", "3"],
     "INVARIANTS", "json"),
    ("invariants_blowup", ["invariants", "blow-up", "--chi", "1", "--k2", "9",
                           "--e", "3", "--n", "1"],
     "INVARIANTS", "json"),
    ("invariants_xiao", ["invariants", "xiao-validate", "--chi", "1", "--q", "0",
                         "--pg", "0", "--k2", "2", "--g2", "0", "--epsilon", "0",
                         "--case", "ii"],
     "REPORT", "json"),
    ("invariants_chi_bounds", ["invariants", "chi-bounds", "--chi", "1", "--q", "0",
                               "--pg", "0", "--g1", "2", "--g2", "0"],
     "REPORT", "json"),
    ("invariants_chi_bounds_product", ["invariants", "chi-bounds", "--chi", "1", "--q", "4",
                                       "--pg", "4", "--k2", "8", "--e", "4",
                                       "--g1", "2", "--g2", "2"],
     "REPORT", "json"),
    ("invariants_general_type", ["invariants", "general-type", "--k2", "2", "--pg", "3",
                                 "--e", "10", "--minimal"],
     "REPORT", "json"),
    ("invariants_slope", ["invariants", "slope", "--k2", "16", "--c2", "6"],
     "SLOPE", "json"),
    ("invariants_elliptic", ["invariants", "elliptic-c2", "--d", "2"],
     "ELLIPTIC", "json"),
    ("invariants_hurwitz", ["invariants", "hurwitz", "--genus", "3"],
     "HURWITZ", "json"),
    ("xiao_scan_csv", ["xiao-scan", "--g2", "0", "--chi-max", "3", "--format", "csv"],
     None, "csv"),
    ("xiao_scan_json", ["xiao-scan", "--g2", "1", "--chi-max", "2"],
     "SCAN", "json"),
]

ERROR_EXAMPLES = [
    ("pencil_proportional",
     ["pencil", "--genus", "2", "--f0", DEMO_F0,
      "--f1", '["-2","0","0","0","0","0","2"]'], 1),
    ("construct_nodes_out_of_range",
     ["construct", "--genus", "2", "--nodes", "3"], 1),
    ("classify_bad_literal",
     ["classify", "--genus", "2", "--f", '["1/0"]'], 2),
    ("classify_not_json",
     ["classify", "--genus", "2", "--f", "x^6-1"], 2),
    ("classify_degree_drop",
     ["classify", "--genus", "2", "--f", '["1","1"]'], 1),
    ("classify_nested_too_deeply",  # json.loads raises RecursionError, not ValueError
     ["classify", "--genus", "2", "--f", "[" * 20000 + "]" * 20000], 2),
]
