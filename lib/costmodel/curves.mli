(** Analytic curves for the paper's Figures 4 and 7. *)

type rate = Raw | Calibrated
(** Which per-byte network rate to use: [Raw] is Table 2's peak TCP rate
    (12 MB/s); [Calibrated] is the effective small-transfer rate implied
    by the paper's 1037-byte breakeven (see {!Table2.calibrated_per_byte}). *)

val per_byte : rate -> float

(** {1 Figure 4 — overhead as modified bytes per page grow} *)

val fig4_log : rate -> bytes:int -> float
(** Per-page overhead of log-based coherency, excluding per-update costs
    (as the figure's caption specifies): just the modified bytes on the
    wire. *)

val fig4_cpycmp : rate -> bytes:int -> float
(** Trap + page copy + page compare + modified bytes on the wire. *)

val fig4_page : float
(** Constant: trap + whole-page send. *)

val page_vs_cpycmp_breakeven : rate -> float
(** Modified bytes per page above which Page beats Cpy/Cmp (the paper
    quotes 1037 bytes; [Calibrated] reproduces that). *)

(** {1 Figure 7 — breakeven updates per page} *)

val fig7_standard : per_update_cost:float -> float
(** Maximum updates per page for which log-based coherency beats Cpy/Cmp,
    given an average per-update cost and the measured OSF/1 trap
    (360.1 µs): [(trap + copy + compare) / per_update_cost].  With the
    18.1 µs unordered update cost of a 1000-update transaction this is 45
    (55 with the 14.8 µs ordered cost), as quoted in Section 4.3. *)

val fig7_fast_trap : per_update_cost:float -> float
(** The same breakeven with the hypothetical 10 µs trap. *)
