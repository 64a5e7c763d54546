(** Topology-parametric symbolic specs of the unisons — the programs the
    flat engine's catalogue runs — and the parameter valuations the
    registry instances use. *)

val tail_unison_spec : Sym.spec
val min_unison_spec : Sym.spec
(** The two self-contained unisons: rules TU-reset/TU-climb/TU-tick and
    MU-zero/MU-climb/MU-tick over one clock field [c ∈ [-alpha, K)], each
    with a legitimacy form and a ["climb-debt"] certificate and rank. *)

val unison_input_spec : Sym.spec
(** The bare unison SDR input layer (Algorithm 2, rule U-inc, [c ∈ [0, K)])
    with the full §3.5 reset interface; [Sym.compose_sdr unison_input_spec]
    is the whole composed U∘SDR system. *)

val tail_unison_params_of_n : int -> (string * int) list
val min_unison_params_of_n : int -> (string * int) list
val unison_sdr_params_of_n : int -> (string * int) list
(** Parameter valuations as a function of the process count, matching the
    registry instances: tail [K = max 4 (2n+2), α = max 1 n]; min
    [K = max 4 (n²+1), α = max 1 (n-2)]; composed [K = n+2, MaxD = n]. *)
