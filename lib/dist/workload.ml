(** The shared workload registry ([Repro_workloads.Rounds]) as the
    farm consumes it: {!Farm.run} drives a definition's rounds on the
    coordinator, and each {!Worker} looks the definition up by name
    and executes its tasks against per-session inputs and resident
    state. *)

include Repro_workloads.Rounds
