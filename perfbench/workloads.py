"""Seeded inputs, timed ops and their checks for each benchmark workload.

A workload plan is plain data drawn from the seed (no library import), so
the worker can set up exactly what the plan needs before the first timed op.
Inputs are drawn without replacement from cost bands: every seed gets the
same number of inputs from each band, which keeps the work of a pass close
to the same across seeds while the inputs themselves change.  Counts are
given for a pass of PASS_SECONDS and scale with the pass length.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("finite-characters", "affine-modules", "identity-verify", "cli-session")
PASS_SECONDS = 4          # the pass length that the draw counts are sized for

# The E6 Weyl identity does not finish in minutes at the seed (its orbit sits
# at MAX_ORBIT); it runs in a child process stopped after this many seconds.
E6_BUDGET_S = 1.0

# Pool entries are "input@seconds[/seconds]": the cost of each of the
# input's ops at reference speed (see worker.reference).  A draw takes a
# fixed number of entries from each cost band, without replacement.  Narrow
# bands keep the work of a pass alike across seeds, and fixed counts keep the
# median and tail op at the same rank among the same kind of op for every
# seed.

# finite-characters: "algebra:labels", costs of freudenthal_character and
# character_via_weyl (averaged over runs of the whole pool in shuffled
# orders); both must lie in a band.
FINITE_POOL = """
    A2:03@0.0029/0.003 A2:12@0.0023/0.0026 A2:13@0.0042/0.0035 A2:21@0.0026/0.0026
    A2:22@0.0043/0.0034 A2:23@0.006/0.0041 A2:30@0.0028/0.0022 A2:31@0.0044/0.0035
    A2:32@0.0071/0.0044 A2:33@0.0093/0.0052 A3:002@0.0076/0.015 A3:003@0.02/0.022
    A3:010@0.0031/0.009 A3:011@0.0077/0.017 A3:012@0.019/0.023 A3:013@0.034/0.043
    A3:020@0.015/0.019 A3:021@0.022/0.03 A3:022@0.043/0.058 A3:030@0.045/0.038
    A3:031@0.057/0.058 A3:101@0.0073/0.015 A3:102@0.014/0.025 A3:103@0.034/0.042
    A3:110@0.0078/0.016 A3:111@0.017/0.028 A3:112@0.028/0.047 A3:120@0.021/0.032
    A3:121@0.04/0.046 A3:130@0.06/0.051 A3:200@0.0089/0.013 A3:201@0.016/0.026
    A3:202@0.03/0.037 A3:210@0.025/0.023 A3:211@0.032/0.046 A3:220@0.048/0.051
    A3:300@0.021/0.019 A3:301@0.038/0.04 A3:310@0.043/0.037 A4:0001@0.0052/0.068
    A4:0002@0.05/0.12 A4:0003@0.23/0.21 A4:0010@0.018/0.091 A4:0011@0.07/0.16
    A4:0012@0.2/0.36 A4:0013@0.62/0.5 A4:0020@0.14/0.28 A4:0021@0.37/0.48
    A4:0022@0.74/0.58 A4:0030@0.88/0.76 A4:0100@0.018/0.087 A4:0101@0.054/0.2
    A4:0102@0.2/0.36 A4:0103@0.48/0.6 A4:0110@0.13/0.2 A4:0111@0.22/0.54 A4:0120@0.6/0.8
    A4:0200@0.14/0.25 A4:0201@0.28/0.61 A4:0210@0.59/0.63 A4:1000@0.0054/0.063
    A4:1001@0.037/0.14 A4:1002@0.11/0.29 A4:1003@0.34/0.58 A4:1010@0.06/0.21
    A4:1011@0.16/0.44 A4:1020@0.35/0.55 A4:1100@0.065/0.16 A4:1101@0.16/0.47
    A4:1110@0.23/0.49 A4:1200@0.4/0.31 A4:2000@0.062/0.1 A4:2001@0.11/0.28
    A4:2002@0.26/0.56 A4:2010@0.18/0.34 A4:2100@0.21/0.35 A4:3000@0.24/0.22
    A4:3001@0.37/0.54 A4:3010@0.61/0.8 A4:3100@0.68/0.49 B2:02@0.002/0.0021
    B2:03@0.003/0.0032 B2:11@0.0019/0.0026 B2:12@0.0045/0.0033 B2:13@0.0062/0.0047
    B2:20@0.0039/0.0025 B2:21@0.0044/0.0035 B2:22@0.0077/0.0048 B2:23@0.0097/0.0076
    B2:30@0.0072/0.004 B2:31@0.0088/0.0057 B2:32@0.013/0.0067 B2:33@0.019/0.0094
    B3:001@0.0035/0.02 B3:002@0.02/0.038 B3:003@0.052/0.059 B3:010@0.018/0.032
    B3:011@0.035/0.064 B3:012@0.078/0.1 B3:013@0.15/0.19 B3:020@0.12/0.12
    B3:021@0.18/0.18 B3:022@0.25/0.24 B3:030@0.44/0.24 B3:100@0.0067/0.018
    B3:101@0.02/0.044 B3:102@0.051/0.1 B3:103@0.1/0.16 B3:110@0.049/0.062
    B3:111@0.075/0.13 B3:112@0.15/0.22 B3:120@0.17/0.15 B3:121@0.21/0.31
    B3:200@0.033/0.026 B3:201@0.057/0.094 B3:202@0.12/0.15 B3:210@0.13/0.095
    B3:211@0.15/0.22 B3:220@0.32/0.29 B3:300@0.096/0.091 B3:301@0.15/0.18
    B3:310@0.27/0.21 B4:0001@0.055/0.36 B4:0002@0.53/1.1 B4:0100@0.21/0.61
    C3:001@0.015/0.022 C3:002@0.12/0.066 C3:003@0.37/0.17 C3:010@0.01/0.021
    C3:011@0.053/0.063 C3:012@0.19/0.11 C3:020@0.042/0.059 C3:021@0.12/0.13
    C3:030@0.13/0.14 C3:101@0.027/0.053 C3:102@0.13/0.12 C3:110@0.02/0.04
    C3:111@0.08/0.12 C3:120@0.074/0.095 C3:200@0.017/0.025 C3:201@0.067/0.098
    C3:210@0.049/0.083 C3:300@0.045/0.056 D4:0001@0.015/0.1 D4:0002@0.13/0.27
    D4:0010@0.014/0.1 D4:0011@0.076/0.23 D4:0020@0.16/0.3 D4:0100@0.067/0.22
    D4:0101@0.3/0.55 D4:0110@0.25/0.58 D4:1000@0.018/0.11 D4:1001@0.096/0.32
    D4:1010@0.097/0.27 D4:1100@0.34/0.53 D4:2000@0.17/0.23 G2:01@0.0061/0.0051
    G2:02@0.021/0.01 G2:03@0.049/0.021 G2:10@0.0025/0.0036 G2:11@0.01/0.011
    G2:12@0.029/0.017 G2:13@0.053/0.027 G2:20@0.0071/0.0061 G2:21@0.02/0.013
    G2:22@0.044/0.023 G2:23@0.083/0.039 G2:30@0.015/0.0094 G2:31@0.036/0.018
    G2:32@0.063/0.03"""
FINITE_DRAW = {"large": (0.45, 0.8, 1), "medium": (0.08, 0.22, 6),
               "small": (0.01, 0.04, 2)}         # (low s, high s, count) per op

# affine-modules: "algebra:level:labels:cutoff", cost of the composed op,
# each measured in a fresh process after set-up (the in-process average
# hides how much an op gains from the caches earlier ops filled).
AFFINE_POOL = """
    A1:2:1:8@0.011 A2:1:00:3@0.038 A2:1:00:4@0.067 A2:1:00:5@0.094 A2:1:00:6@0.14
    A2:1:01:2@0.024 A2:1:01:3@0.04 A2:1:01:4@0.061 A2:1:01:5@0.081 A2:1:01:6@0.15
    A2:1:10:2@0.023 A2:1:10:3@0.023 A2:1:10:4@0.066 A2:1:10:5@0.11 A2:1:10:6@0.13
    A2:2:00:2@0.027 A2:2:00:3@0.052 A2:2:00:4@0.086 A2:2:00:5@0.18 A2:2:00:6@0.27
    A2:2:01:1@0.015 A2:2:01:2@0.04 A2:2:01:3@0.088 A2:2:01:4@0.14 A2:2:01:5@0.29
    A2:2:01:6@0.31 A2:2:02:2@0.058 A2:2:02:3@0.083 A2:2:02:4@0.16 A2:2:02:5@0.29
    A2:2:02:6@0.33 A2:2:10:2@0.049 A2:2:10:3@0.11 A2:2:10:4@0.12 A2:2:10:5@0.24
    A2:2:10:6@0.34 A2:2:11:1@0.019 A2:2:11:2@0.047 A2:2:11:3@0.1 A2:2:11:4@0.17
    A2:2:11:5@0.26 A2:2:11:6@0.4 A2:2:20:2@0.051 A2:2:20:3@0.091 A2:2:20:4@0.15
    A2:2:20:5@0.24 A2:2:20:6@0.36 A3:1:000:1@0.032 A3:1:000:2@0.1 A3:1:000:3@0.19
    A3:1:000:4@0.41 A3:1:001:1@0.052 A3:1:001:2@0.13 A3:1:001:3@0.28 A3:1:001:4@0.28
    A3:1:010:1@0.072 A3:1:010:2@0.2 A3:1:010:3@0.27 A3:1:010:4@0.57 A3:1:100:1@0.057
    A3:1:100:2@0.14 A3:1:100:3@0.31 A3:1:100:4@0.54 A3:2:000:1@0.015 A3:2:000:2@0.17
    A3:2:000:3@0.44 A3:2:001:1@0.073 A3:2:001:2@0.28 A3:2:001:3@0.78 A3:2:002:1@0.1
    A3:2:002:2@0.37 A3:2:002:3@1 A3:2:010:1@0.097 A3:2:010:2@0.4 A3:2:010:3@0.92
    A3:2:011:1@0.17 A3:2:011:2@0.55 A3:2:020:1@0.16 A3:2:020:2@0.6 A3:2:020:3@1.1
    A3:2:100:1@0.073 A3:2:100:2@0.27 A3:2:100:3@0.74 A3:2:100:4@1.4 A3:2:101:1@0.17
    A3:2:101:2@0.4 A3:2:101:3@0.98 A3:2:110:1@0.16 A3:2:110:2@0.36 A3:2:110:3@1
    A3:2:200:1@0.1 A3:2:200:2@0.37 A3:2:200:3@0.85 B2:1:00:2@0.03 B2:1:00:3@0.066
    B2:1:00:4@0.11 B2:1:00:5@0.19 B2:1:00:6@0.23 B2:1:01:2@0.033 B2:1:01:3@0.078
    B2:1:01:4@0.065 B2:1:01:5@0.17 B2:1:01:6@0.28 B2:1:10:2@0.037 B2:1:10:3@0.069
    B2:1:10:4@0.14 B2:1:10:5@0.19 B2:1:10:6@0.3 B2:2:00:2@0.052 B2:2:00:3@0.1
    B2:2:00:4@0.23 B2:2:00:5@0.36 B2:2:00:6@0.56 B2:2:01:2@0.071 B2:2:01:3@0.22
    B2:2:01:4@0.23 B2:2:01:5@0.41 B2:2:01:6@0.67 B2:2:02:1@0.032 B2:2:02:2@0.095
    B2:2:02:3@0.23 B2:2:02:4@0.38 B2:2:02:5@0.52 B2:2:02:6@0.55 B2:2:10:1@0.025
    B2:2:10:2@0.089 B2:2:10:3@0.22 B2:2:10:4@0.32 B2:2:10:5@0.46 B2:2:10:6@0.67
    B2:2:11:1@0.03 B2:2:11:2@0.12 B2:2:11:3@0.2 B2:2:11:4@0.33 B2:2:11:5@0.65
    B2:2:20:1@0.031 B2:2:20:2@0.086 B2:2:20:3@0.23 B2:2:20:4@0.34 B2:2:20:5@0.55
    B2:2:20:6@0.86 C3:1:000:1@0.071 C3:1:000:2@0.23 C3:1:000:3@0.57 C3:1:001:1@0.13
    C3:1:001:2@0.28 C3:1:001:3@0.77 C3:1:010:1@0.14 C3:1:010:2@0.53 C3:1:010:3@0.77
    C3:1:100:1@0.1 C3:1:100:2@0.33 C3:1:100:3@0.79 C3:2:000:1@0.064 C3:2:000:2@0.37
    C3:2:000:3@1 C3:2:001:1@0.22 C3:2:001:2@0.85 C3:2:002:1@0.46 C3:2:002:2@1.2
    C3:2:010:1@0.24 C3:2:010:2@0.87 C3:2:011:1@0.59 C3:2:011:2@1.4 C3:2:020:1@0.57
    C3:2:020:2@1.1 C3:2:100:1@0.14 C3:2:100:2@0.58 C3:2:101:1@0.49 C3:2:101:2@1.8
    C3:2:110:1@0.65 C3:2:110:2@1.1 C3:2:200:1@0.3 C3:2:200:2@0.97 G2:1:00:2@0.016
    G2:1:00:3@0.093 G2:1:00:4@0.17 G2:1:00:5@0.26 G2:1:00:6@0.44 G2:1:00:7@0.65
    G2:1:10:1@0.018 G2:1:10:2@0.062 G2:1:10:3@0.12 G2:1:10:4@0.18 G2:1:10:5@0.37
    G2:1:10:6@0.42 G2:1:10:7@0.6 G2:2:00:1@0.013 G2:2:00:2@0.05 G2:2:00:3@0.18
    G2:2:00:4@0.32 G2:2:00:5@0.57 G2:2:01:1@0.07 G2:2:01:2@0.13 G2:2:01:3@0.4
    G2:2:01:4@0.47 G2:2:01:5@0.76 G2:2:10:1@0.028 G2:2:10:2@0.11 G2:2:10:3@0.24
    G2:2:10:4@0.47 G2:2:10:5@0.75 G2:2:20:1@0.068 G2:2:20:2@0.19 G2:2:20:3@0.31
    G2:2:20:4@0.51 G2:2:20:5@1.2"""
AFFINE_DRAW = {"large": (0.6, 0.8, 1), "medium": (0.15, 0.25, 10),
               "small": (0.03, 0.07, 3)}
AFFINE_FREUDENTHAL_CHECKS = 2          # ops also checked against affine_freudenthal
AFFINE_FREUDENTHAL_CUTOFF = 1         # the oracle is slow: grades 0..1 only

SPLINT_NAMES = ("G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1", "A3:A2A1A1A1")
SPLINTS_BY_AMBIENT = {"G2": ["G2:A2A2"], "B2": ["B2:A1A1", "B2:A1A2"],
                      "A2": ["A2:A1A1A1"], "A3": ["A3:A2A1A1A1"]}

# identity-verify: "splint:verifier:cutoff", cost of the verifier (averaged
# over runs of the whole pool in shuffled orders).  Every (splint, verifier)
# pair gets one seeded cutoff; a few more are drawn from a band.
VERIFIERS = {"den": "denominator", "tp": "theta-product", "ts": "theta-sum"}
VERIFY_POOL = """
    G2:A2A2:den:1@0.013 G2:A2A2:tp:1@0.0081 G2:A2A2:ts:1@0.015 G2:A2A2:den:2@0.043
    G2:A2A2:tp:2@0.02 G2:A2A2:ts:2@0.017 G2:A2A2:den:3@0.074 G2:A2A2:tp:3@0.034
    G2:A2A2:ts:3@0.025 G2:A2A2:den:4@0.15 G2:A2A2:tp:4@0.08 G2:A2A2:ts:4@0.024
    G2:A2A2:den:5@0.26 G2:A2A2:tp:5@0.12 G2:A2A2:ts:5@0.026 G2:A2A2:tp:6@0.18
    G2:A2A2:ts:6@0.046 G2:A2A2:tp:7@0.3 G2:A2A2:ts:7@0.046 G2:A2A2:ts:8@0.048
    B2:A1A1:den:1@0.0044 B2:A1A1:tp:1@0.0024 B2:A1A1:ts:1@0.0072 B2:A1A1:den:2@0.015
    B2:A1A1:tp:2@0.0068 B2:A1A1:ts:2@0.0087 B2:A1A1:den:3@0.027 B2:A1A1:tp:3@0.014
    B2:A1A1:ts:3@0.01 B2:A1A1:den:4@0.047 B2:A1A1:tp:4@0.021 B2:A1A1:ts:4@0.014
    B2:A1A1:den:5@0.085 B2:A1A1:tp:5@0.036 B2:A1A1:ts:5@0.017 B2:A1A1:den:6@0.14
    B2:A1A1:tp:6@0.055 B2:A1A1:ts:6@0.02 B2:A1A1:den:7@0.17 B2:A1A1:tp:7@0.076
    B2:A1A1:ts:7@0.024 B2:A1A1:den:8@0.22 B2:A1A1:tp:8@0.097 B2:A1A1:ts:8@0.024
    B2:A1A2:den:1@0.0048 B2:A1A2:tp:1@0.0026 B2:A1A2:ts:1@0.0088 B2:A1A2:den:2@0.01
    B2:A1A2:tp:2@0.0063 B2:A1A2:ts:2@0.012 B2:A1A2:den:3@0.026 B2:A1A2:tp:3@0.012
    B2:A1A2:ts:3@0.014 B2:A1A2:den:4@0.046 B2:A1A2:tp:4@0.024 B2:A1A2:ts:4@0.012
    B2:A1A2:den:5@0.074 B2:A1A2:tp:5@0.03 B2:A1A2:ts:5@0.016 B2:A1A2:den:6@0.13
    B2:A1A2:tp:6@0.042 B2:A1A2:ts:6@0.019 B2:A1A2:den:7@0.18 B2:A1A2:tp:7@0.072
    B2:A1A2:ts:7@0.021 B2:A1A2:den:8@0.23 B2:A1A2:tp:8@0.12 B2:A1A2:ts:8@0.023
    A2:A1A1A1:den:1@0.0031 A2:A1A1A1:tp:1@0.0023 A2:A1A1A1:ts:1@0.005
    A2:A1A1A1:den:2@0.009 A2:A1A1A1:tp:2@0.004 A2:A1A1A1:ts:2@0.0076
    A2:A1A1A1:den:3@0.019 A2:A1A1A1:tp:3@0.0092 A2:A1A1A1:ts:3@0.0088
    A2:A1A1A1:den:4@0.032 A2:A1A1A1:tp:4@0.014 A2:A1A1A1:ts:4@0.0092
    A2:A1A1A1:den:5@0.049 A2:A1A1A1:tp:5@0.025 A2:A1A1A1:ts:5@0.015
    A2:A1A1A1:den:6@0.061 A2:A1A1A1:tp:6@0.04 A2:A1A1A1:ts:6@0.013 A2:A1A1A1:den:7@0.09
    A2:A1A1A1:tp:7@0.044 A2:A1A1A1:ts:7@0.015 A2:A1A1A1:den:8@0.17 A2:A1A1A1:tp:8@0.069
    A2:A1A1A1:ts:8@0.015 A3:A2A1A1A1:den:1@0.022 A3:A2A1A1A1:tp:1@0.012
    A3:A2A1A1A1:ts:1@0.027 A3:A2A1A1A1:den:2@0.082 A3:A2A1A1A1:tp:2@0.036
    A3:A2A1A1A1:ts:2@0.034 A3:A2A1A1A1:den:3@0.25 A3:A2A1A1A1:tp:3@0.082
    A3:A2A1A1A1:ts:3@0.046 A3:A2A1A1A1:tp:4@0.17 A3:A2A1A1A1:ts:4@0.065
    A3:A2A1A1A1:tp:5@0.29 A3:A2A1A1A1:ts:5@0.088 A3:A2A1A1A1:ts:6@0.12"""
VERIFY_FIRST_BAND = (0.012, 0.03)
VERIFY_EXTRA = (0.12, 0.2, 9)
WEYL_ALWAYS = ("F4", "D5")
WEYL_POOL = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")     # each well under 0.02 s
WEYL_DRAWS = 2
# the acceptance suite's negative controls: (name, cutoff, known first-mismatch grade)
NEGATIVE_CONTROLS = (("corrupt-denominator", 3, "0"), ("corrupt-theta-product", 3, "0"),
                     ("dropped-theta-term", 3, "2/3"))


def scaled(n, seconds):
    return max(1, round(n * seconds / PASS_SECONDS))


def _labels_of(code):
    return [int(c) for c in code]


def _rng(workload, seed):
    # string seeding is independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _pool(text, low=0.0, high=float("inf")):
    """(input, summed cost) of the entries whose every op cost is in the band."""
    out = []
    for entry in text.split():
        key, costs = entry.split("@")
        costs = [float(c) for c in costs.split("/")]
        if all(low <= c <= high for c in costs):
            out.append((key, sum(costs)))
    return out


def _draw(rng, pool, bands, seconds, taken=()):
    picks = []
    for low, high, count in bands.values():
        entries = [k for k, _ in _pool(pool, low, high) if k not in taken]
        picks += rng.sample(entries, min(len(entries), scaled(count, seconds)))
    rng.shuffle(picks)
    return picks


def plan(workload, seed, seconds):
    """The seeded list of op specs for one run (plain data)."""
    rng = _rng(workload, seed)
    if workload == "finite-characters":
        picks = [p.split(":") for p in _draw(rng, FINITE_POOL, FINITE_DRAW, seconds)]
        return [{"kind": "finite", "algebra": a, "labels": _labels_of(l)} for a, l in picks]
    if workload == "affine-modules":
        picks = [p.split(":") for p in _draw(rng, AFFINE_POOL, AFFINE_DRAW, seconds)]
        checked = set(rng.sample(range(len(picks)), min(len(picks), AFFINE_FREUDENTHAL_CHECKS)))
        return [{"kind": "affine", "algebra": a, "level": int(k), "labels": _labels_of(l),
                 "cutoff": int(n), "freudenthal_check": i in checked}
                for i, (a, k, l, n) in enumerate(picks)]
    if workload == "identity-verify":
        pool, band = _pool(VERIFY_POOL), _pool(VERIFY_POOL, *VERIFY_FIRST_BAND)
        first = []
        for name in SPLINT_NAMES:
            for code in VERIFIERS:
                pair = [k for k, _ in band if k.startswith(f"{name}:{code}:")]
                cheapest = min((c, k) for k, c in pool if k.startswith(f"{name}:{code}:"))[1]
                first.append(rng.choice(pair) if pair else cheapest)
        picks = first + _draw(rng, VERIFY_POOL, {"extra": VERIFY_EXTRA}, seconds, first)
        specs = []
        for key in picks:
            name, code, n = key.rsplit(":", 2)
            specs.append({"kind": "verify", "splint": name, "identity": VERIFIERS[code],
                          "cutoff": int(n)})
        algebras = list(WEYL_ALWAYS) + rng.sample(WEYL_POOL, min(len(WEYL_POOL),
                                                                scaled(WEYL_DRAWS, seconds)))
        specs += [{"kind": "weyl", "algebra": a} for a in algebras]
        specs += [{"kind": "negative", "control": c, "cutoff": n, "first_mismatch": m}
                  for c, n, m in NEGATIVE_CONTROLS]
        specs.append({"kind": "weyl-budget", "algebra": "E6", "budget_s": E6_BUDGET_S})
        rng.shuffle(specs)
        return specs
    if workload == "cli-session":
        return cli_plan(rng, seconds)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# cli-session: a command sequence built from the README templates

CLI_ROOTS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4")
CLI_LIST = ("B2", "A3")
# (algebra, splint, label bound); the G2 probe costs about three times the others
CLI_BRANCH_G2 = ("G2", "A2A2", 2)
CLI_BRANCH = [("B2", "A1A1", 2), ("B2", "A1A2", 2), ("A2", "A1A1A1", 2),
              ("A3", "A2A1A1A1", 1)]
# affine modules (algebra, labels, level, cutoff): one G2 module used by
# strings and affine-branch, one A2 or B2 module used by qdim and
# affine-branch
CLI_AFFINE_G2 = [("G2", [0, 0], 1, 4), ("G2", [1, 0], 1, 3)]
CLI_AFFINE = [("A2", [0, 0], 1, 4), ("A2", [1, 0], 1, 4), ("B2", [0, 0], 1, 4),
              ("B2", [0, 1], 1, 4)]
# an A1 module for `strings --emit matrix`
CLI_AFFINE_A1 = [("A1", [0], 1, 8), ("A1", [1], 1, 8), ("A1", [0], 2, 6), ("A1", [2], 2, 6)]
CLI_VERIFY = [["--identity", "denominator", "--splint", "B2:A1A1", "--grade-max", "3"],
              ["--identity", "theta-product", "--splint", "B2:A1A2", "--grade-max", "3"],
              ["--identity", "theta-sum", "--splint", "A2:A1A1A1", "--grade-max", "3"],
              ["--identity", "denominator", "--splint", "A2:A1A1A1", "--grade-max", "3"],
              ["--identity", "theta-sum", "--splint", "G2:A2A2", "--grade-max", "3"],
              ["--identity", "theta-product", "--splint", "A2:A1A1A1", "--grade-max", "4"],
              ["--identity", "weyl", "--algebra", "B2"],
              ["--identity", "all", "--splint", "A2:A1A1A1", "--grade-max", "2"]]
CLI_COUNTS = {"roots": 2, "splint-check": 2, "verify": 2}


def cli_plan(rng, seconds):
    """Commands (argv lists for splintbranch.cli) in seeded order.  Each
    affine module is used by several commands, so later commands read the
    character an earlier one wrote to the cache.  Every sequence has the same
    command kinds; the seed picks algebras, weights, formats and order."""
    def fmt():
        return ["--format", rng.choice(("text", "json"))]

    def weight(alg, top):
        return ",".join(str(rng.randint(0, top)) for _ in range(int(alg[1:])))

    n = {k: scaled(v, seconds) for k, v in CLI_COUNTS.items()}
    cmds = [["roots", "--algebra", alg] + fmt()
            for alg in rng.sample(CLI_ROOTS, min(n["roots"], len(CLI_ROOTS)))]
    cmds += [["splint", "check", "--splint", name] + fmt()
             for name in rng.sample(SPLINT_NAMES, min(n["splint-check"], len(SPLINT_NAMES)))]
    cmds.append(["splint", "list", "--algebra", rng.choice(CLI_LIST)] + fmt())
    alg, sp, _ = rng.choice([CLI_BRANCH_G2] + CLI_BRANCH)
    cmds.append(["fan", "--algebra", alg, "--splint", sp] + fmt())
    for alg, sp, top in (CLI_BRANCH_G2, rng.choice(CLI_BRANCH)):
        cmds.append(["branch", "--algebra", alg, "--splint", sp, "--weight", weight(alg, top),
                     "--oracle"] + fmt())
    for first, (alg, labels, level, grade) in (("strings", rng.choice(CLI_AFFINE_G2)),
                                               ("qdim", rng.choice(CLI_AFFINE))):
        common = ["--algebra", alg, "--level", str(level),
                  "--weight", ",".join(map(str, labels)), "--grade-max", str(grade)]
        sp = SPLINTS_BY_AMBIENT[alg][0].split(":")[1]
        cmds += [[first] + common + fmt(),
                 ["affine-branch", "--splint", sp, "--oracle"] + common + fmt()]
    alg, labels, level, grade = rng.choice(CLI_AFFINE_A1)
    common = ["--algebra", alg, "--level", str(level), "--weight", str(labels[0]),
              "--grade-max", str(grade)]
    cmds.append(["strings"] + common + ["--emit", "matrix"] + fmt())
    cmds += [["verify"] + v + fmt()
             for v in rng.sample(CLI_VERIFY, min(n["verify"], len(CLI_VERIFY)))]
    rng.shuffle(cmds)
    return [{"kind": "cli", "argv": c} for c in cmds]


def check_cli_output(argv, code, stdout):
    """Exit code 0, parseable JSON records, oracle_match true."""
    if code != 0:
        return False, f"exit code {code}"
    if argv[argv.index("--format") + 1] == "json":
        try:
            rec = json.loads(stdout)
        except ValueError as exc:
            return False, f"bad JSON record: {exc}"
        if "--oracle" in argv and rec.get("oracle_match") is not True:
            return False, "oracle_match is not true"
    elif "--oracle" in argv and "oracle match: True" not in stdout:
        return False, "oracle match line missing"
    return True, ""


# ---------------------------------------------------------------------------
# digests: canonical text of each result, weights written as Dynkin labels


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _labels(rs, v):
    return ",".join(str(x) for x in rs.dynkin_labels(v))


def char_text(rs, fc):
    return ";".join(sorted(f"{_labels(rs, v)}:{c}" for v, c in fc.items()))


def series_text(rs, bs):
    return ";".join(sorted(f"{_labels(rs, nu)}@{n}:{b}" for (nu, n), b in bs.entries.items()))


def report_text(rep):
    return f"{rep.name}|{rep.passed}|{rep.first_mismatch}|{rep.normalization}|{rep.detail}"


# ---------------------------------------------------------------------------
# in-process set-up and ops


def needs(specs):
    """Algebras to build and splints to load (and probe) before timing."""
    algebras, splints, probe = set(), set(), set()
    for s in specs:
        if s["kind"] in ("finite", "weyl"):
            algebras.add(s["algebra"])
        elif s["kind"] == "affine":
            algebras.add(s["algebra"])
            for name in SPLINTS_BY_AMBIENT.get(s["algebra"], ()):
                splints.add(name)
                probe.add(name)
        elif s["kind"] == "verify":
            splints.add(s["splint"])
        elif s["kind"] == "negative":
            splints.add("G2:A2A2")
    return sorted(algebras), sorted(splints), sorted(probe)


def setup(specs, oracles=True):
    """Import-time and one-time work: root systems, verified catalog
    entries (check_splint runs on load), and the tilde probe of the splints
    that the affine ops branch through."""
    from splintbranch.rootsystem import build_root_system
    from splintbranch.splints import Embedding, Splint, find_splint

    algebras, splint_names, probe = needs(specs)
    ctx = {"rs": {a: build_root_system(a) for a in algebras},
           "splint": {n: find_splint(n) for n in splint_names}, "oracles": oracles}
    for name in probe:
        ctx["splint"][name].branching_status()
    if "G2:A2A2" in ctx["splint"]:
        # the acceptance suite's corrupted G2 splint
        s = ctx["splint"]["G2:A2A2"]
        pos = dict(s.phi2.pos_map)
        pos[max(pos)] = sorted(s.phi1.pos_map.values())[0]
        ctx["corrupt"] = Splint("G2:A2A2-corrupt", s.ambient, s.phi1,
                                Embedding(s.phi2.source, s.ambient, pos), s.correspondence)
    return ctx


class Item:
    """One input: its timed ops and the check of their results."""

    def __init__(self, ops, check):
        self.ops = ops          # [(name, fn)]
        self.check = check      # results -> [(ok, detail, digest text)] per op


def build_item(spec, ctx):
    from splintbranch import affine as af
    from splintbranch import qseries as qs
    from splintbranch.characters import (character_via_weyl, freudenthal_character,
                                         singular_element, weyl_denominator,
                                         weyl_dimension)
    from splintbranch.rootsystem import zero_vec

    kind = spec["kind"]
    if kind == "finite":
        rs = ctx["rs"][spec["algebra"]]
        mu = rs.weight_from_labels(spec["labels"])
        tag = f"{spec['algebra']} ({','.join(map(str, spec['labels']))})"

        def check(results):
            fr, wq = results
            ok = fr is not None and fr == wq and fr.total() == weyl_dimension(rs, mu)
            detail = "" if ok else "Freudenthal, Weyl quotient and Weyl dimension disagree"
            return [(ok, detail, None if r is None else char_text(rs, r)) for r in results]

        return Item([(f"freudenthal_character {tag}", lambda: freudenthal_character(rs, mu)),
                     (f"character_via_weyl {tag}", lambda: character_via_weyl(rs, mu))], check)

    if kind == "affine":
        rs = ctx["rs"][spec["algebra"]]
        aw = af.AffineWeight(rs.weight_from_labels(spec["labels"]), spec["level"])
        n = spec["cutoff"]
        splints = [ctx["splint"][s] for s in SPLINTS_BY_AMBIENT.get(spec["algebra"], ())]

        def op():
            gc = af.affine_character(rs, aw, n)
            bs = af.graded_branch_to_g(rs, aw, n, gc)
            qd = af.q_dimension(rs, aw, n, bs, gc)
            subs = [af.branch_affine_to_subalgebra(rs, s, aw, n, gc) for s in splints]
            return gc, bs, qd, subs

        def check(results):
            (res,) = results
            if res is None:
                return [(False, "raised", None)]
            gc, bs, qd, subs = res
            problems = []
            # the oracles run in one pass of a run; the other passes must
            # reproduce its output digests
            for s, sub in zip(splints, subs if ctx["oracles"] else ()):
                if sub.entries != af.branch_affine_direct(rs, s, aw, n, gc).entries:
                    problems.append(f"composed route != direct route through {s.name}")
            if spec["freudenthal_check"] and ctx["oracles"]:
                c = min(n, AFFINE_FREUDENTHAL_CUTOFF)
                oracle = af.affine_freudenthal(rs, aw, c)
                if any(gc.layers[g] != oracle.layers[g] for g in range(c + 1)):
                    problems.append(f"layers differ from affine_freudenthal to grade {c}")
            text = "|".join([";".join(char_text(rs, layer) for layer in gc.layers),
                             series_text(rs, bs), str(qd)]
                            + [series_text(rs, sub) for sub in subs])
            return [(not problems, "; ".join(problems), text)]

        name = (f"affine {spec['algebra']} k={spec['level']} "
                f"({','.join(map(str, spec['labels']))}) N={n}")
        return Item([(name, op)], check)

    if kind in ("verify", "negative"):
        if kind == "verify":
            s = ctx["splint"][spec["splint"]]
            fn = {"denominator": qs.verify_denominator_splint,
                  "theta-product": qs.verify_theta_products,
                  "theta-sum": qs.verify_theta_sums}[spec["identity"]]
            args = (s, spec["cutoff"])
            name = f"{fn.__name__} {spec['splint']} N={spec['cutoff']}"
            want_pass, want_mismatch = True, "None"
        else:
            control = spec["control"]
            if control == "corrupt-denominator":
                fn, args = qs.verify_denominator_splint, (ctx["corrupt"], spec["cutoff"])
            elif control == "corrupt-theta-product":
                fn, args = qs.verify_theta_products, (ctx["corrupt"], spec["cutoff"])
            else:
                fn, args = qs.verify_theta_sums, (ctx["splint"]["G2:A2A2"], spec["cutoff"], True)
            name = f"negative control {control} N={spec['cutoff']}"
            want_pass, want_mismatch = False, spec["first_mismatch"]

        def check(results):
            (rep,) = results
            if rep is None:
                return [(False, "raised", None)]
            ok = rep.passed == want_pass and str(rep.first_mismatch) == want_mismatch
            detail = "" if ok else (f"verdict {rep.passed} at {rep.first_mismatch}, "
                                    f"expected {want_pass} at {want_mismatch}")
            return [(ok, detail, report_text(rep))]

        return Item([(name, lambda: fn(*args))], check)

    if kind == "weyl":
        rs = ctx["rs"][spec["algebra"]]

        def check(results):
            (ok,) = results
            return [(ok is True, "" if ok is True else f"verdict {ok}", str(ok))]

        return Item([(f"weyl identity {spec['algebra']}",
                      lambda: singular_element(rs, zero_vec(rs.dim)) == weyl_denominator(rs))],
                    check)

    raise ValueError(f"no in-process op for {kind!r}")


def weyl_identity(algebra):
    """Body of the budgeted child process: the finite Weyl identity."""
    from splintbranch.characters import singular_element, weyl_denominator
    from splintbranch.rootsystem import build_root_system, zero_vec
    rs = build_root_system(algebra)
    return singular_element(rs, zero_vec(rs.dim)) == weyl_denominator(rs)
